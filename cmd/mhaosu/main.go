// Command mhaosu is an OSU-micro-benchmark-style CLI over the simulator —
// the same tests the paper's evaluation ran (osu_latency, osu_bw,
// osu_allgather, osu_allreduce) plus bcast and alltoall, against any of
// the three modeled libraries.
//
// Usage:
//
//	mhaosu latency                     # inter-node pt2pt latency sweep
//	mhaosu bw -hcas 1                  # single-rail bandwidth
//	mhaosu allgather -nodes 8 -ppn 32 -lib mha
//	mhaosu allreduce -lib mvapich2x -min 65536 -max 1048576
//	mhaosu bcast -nodes 4 -ppn 8
//	mhaosu alltoall -nodes 4 -ppn 8 -lib mha
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mha/internal/bench"
	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/machines"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	test := os.Args[1]
	fs := flag.NewFlagSet(test, flag.ExitOnError)
	var (
		nodes   = fs.Int("nodes", 2, "number of nodes")
		ppn     = fs.Int("ppn", 1, "processes per node")
		hcas    = fs.Int("hcas", 2, "HCAs per node")
		machine = fs.String("machine", "", "named preset (overrides -hcas and the cost model): "+strings.Join(machines.Names(), " | "))
		lib     = fs.String("lib", "mha", "library: hpcx | mvapich2x | mha")
		min     = fs.Int("min", 1<<10, "smallest message size")
		max     = fs.Int("max", 4<<20, "largest message size")
	)
	fs.Parse(os.Args[2:])

	prm := netmodel.Thor()
	topo := topology.New(*nodes, *ppn, *hcas)
	if *machine != "" {
		m, ok := machines.Get(*machine)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown machine %q (have: %s)\n", *machine, strings.Join(machines.Names(), ", "))
			os.Exit(2)
		}
		prm = m.Params
		topo = m.Topo
		topo.Nodes, topo.PPN = *nodes, *ppn // shape from flags, rails+model from preset
		if err := topo.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	prof, ok := profileOf(*lib)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown library %q\n", *lib)
		os.Exit(2)
	}

	switch test {
	case "latency":
		fmt.Printf("# OSU-style pt2pt latency, %v\n%-12s %12s\n", topo, "size", "latency (us)")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, bench.PtPtLatency(topo, prm, m).Micros())
		}
	case "bw":
		fmt.Printf("# OSU-style pt2pt bandwidth, %v\n%-12s %12s\n", topo, "size", "MB/s")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, bench.PtPtBandwidth(topo, prm, m))
		}
	case "allgather":
		fmt.Printf("# OSU-style allgather, %v, %s\n%-12s %12s\n", topo, prof.Name, "size", "latency (us)")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, bench.AllgatherLatency(topo, prm, m, prof).Micros())
		}
	case "allreduce":
		fmt.Printf("# OSU-style allreduce, %v, %s\n%-12s %12s\n", topo, prof.Name, "size", "latency (us)")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, bench.AllreduceLatency(topo, prm, m, prof).Micros())
		}
	case "bcast":
		fmt.Printf("# OSU-style bcast, %v, %s\n%-12s %12s\n", topo, prof.Name, "size", "latency (us)")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, measureBcast(topo, prm, m, *lib).Micros())
		}
	case "alltoall":
		fmt.Printf("# OSU-style alltoall, %v, %s\n%-12s %12s\n", topo, prof.Name, "size", "latency (us)")
		for m := *min; m <= *max; m *= 2 {
			fmt.Printf("%-12d %12.2f\n", m, measureAlltoall(topo, prm, m, *lib).Micros())
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mhaosu {latency|bw|allgather|allreduce|bcast|alltoall} [flags]")
}

func profileOf(lib string) (collectives.Profile, bool) {
	switch lib {
	case "hpcx":
		return collectives.HPCX(), true
	case "mvapich2x":
		return collectives.MVAPICH2X(), true
	case "mha":
		return core.Profile(), true
	default:
		return collectives.Profile{}, false
	}
}

func measureBcast(topo topology.Cluster, prm *netmodel.Params, m int, lib string) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	err := w.Run(func(p *mpi.Proc) {
		buf := mpi.Phantom(m)
		if lib == "mha" {
			core.MHABcast(p, w, 0, buf)
		} else {
			collectives.BinomialBcast(p, w.CommWorld(), 0, buf)
		}
	})
	if err != nil {
		panic(err)
	}
	return sim.Duration(w.Makespan())
}

func measureAlltoall(topo topology.Cluster, prm *netmodel.Params, m int, lib string) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	err := w.Run(func(p *mpi.Proc) {
		total := m * p.Size()
		if lib == "mha" {
			core.MHAAlltoall(p, w, mpi.Phantom(total), mpi.Phantom(total))
		} else {
			collectives.PairwiseAlltoall(p, w.CommWorld(), mpi.Phantom(total), mpi.Phantom(total))
		}
	})
	if err != nil {
		panic(err)
	}
	return sim.Duration(w.Makespan())
}
