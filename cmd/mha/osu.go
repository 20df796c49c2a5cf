package main

import (
	"flag"
	"fmt"
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

// osuCmds are the OSU-micro-benchmark-style tests over the simulator: the
// ones the paper's evaluation ran (osu_latency, osu_bw, osu_allgather,
// osu_allreduce) plus bcast and alltoall, against any of the three
// modeled libraries.
//
//	mha osu latency                     # inter-node pt2pt latency sweep
//	mha osu bw -hcas 1                  # single-rail bandwidth
//	mha osu allgather -nodes 8 -ppn 32 -lib mha
//	mha osu allreduce -lib mvapich2x -min 65536 -max 1048576
//	mha osu bcast -nodes 4 -ppn 8
//	mha osu alltoall -nodes 4 -ppn 8 -lib mha
var osuCmds = []tool{
	osuTest("latency", "pt2pt latency", "latency (us)", func(c osuCase) float64 {
		return bench.PtPtLatency(c.topo, c.prm, c.m).Micros()
	}),
	osuTest("bw", "pt2pt bandwidth", "MB/s", func(c osuCase) float64 {
		return bench.PtPtBandwidth(c.topo, c.prm, c.m)
	}),
	osuTest("allgather", "allgather", "latency (us)", func(c osuCase) float64 {
		return bench.AllgatherLatency(c.topo, c.prm, c.m, c.prof).Micros()
	}),
	osuTest("allreduce", "allreduce", "latency (us)", func(c osuCase) float64 {
		return bench.AllreduceLatency(c.topo, c.prm, c.m, c.prof).Micros()
	}),
	osuTest("bcast", "bcast", "latency (us)", func(c osuCase) float64 {
		return measureBcast(c.topo, c.prm, c.m, c.lib).Micros()
	}),
	osuTest("alltoall", "alltoall", "latency (us)", func(c osuCase) float64 {
		return measureAlltoall(c.topo, c.prm, c.m, c.lib).Micros()
	}),
}

// osuCase is one point of an OSU sweep.
type osuCase struct {
	topo topology.Cluster
	prm  *netmodel.Params
	lib  string
	prof collectives.Profile
	m    int
}

// osuTest is the subcommand that prints measure at every message size
// from -min to -max, doubling. A pt2pt test's header names no library,
// because it runs none.
func osuTest(name, title, unit string, measure func(osuCase) float64) tool {
	return tool{name, title + " over message sizes", func(args []string) error {
		fs := flag.NewFlagSet("mha osu "+name, flag.ExitOnError)
		var (
			shape   = shapeFlags(fs, 2, 1, 2)
			machine = fs.String("machine", "", "named preset (overrides -hcas and the cost model): "+strings.Join(machines.Names(), " | "))
			lib     = fs.String("lib", "mha", "library: hpcx | mvapich2x | mha")
			min     = fs.Int("min", 1<<10, "smallest message size")
			max     = fs.Int("max", 4<<20, "largest message size")
		)
		fs.Parse(args)

		c := osuCase{prm: netmodel.Thor(), lib: *lib}
		var err error
		if c.topo, err = shape(); err != nil {
			return err
		}
		if *machine != "" {
			m, ok := machines.Get(*machine)
			if !ok {
				return usageError{fmt.Errorf("unknown machine %q (have: %s)", *machine, strings.Join(machines.Names(), ", "))}
			}
			nodes, ppn := c.topo.Nodes, c.topo.PPN
			c.prm, c.topo = m.Params, m.Topo
			c.topo.Nodes, c.topo.PPN = nodes, ppn // shape from flags, rails+model from preset
			if err := c.topo.Validate(); err != nil {
				return usageError{err}
			}
		}
		var ok bool
		if c.prof, ok = profileOf(*lib); !ok {
			return usageError{fmt.Errorf("unknown library %q", *lib)}
		}

		fmt.Printf("# OSU-style %s, %v", title, c.topo)
		if !strings.HasPrefix(title, "pt2pt ") {
			fmt.Printf(", %s", c.prof.Name)
		}
		fmt.Printf("\n%-12s %12s\n", "size", unit)
		for c.m = *min; c.m <= *max; c.m *= 2 {
			fmt.Printf("%-12d %12.2f\n", c.m, measure(c))
		}
		return nil
	}}
}

// profileOf finds the modeled library whose name, lowercased with its
// dashes dropped, is lib ("HPC-X" is hpcx, "MVAPICH2-X" mvapich2x).
func profileOf(lib string) (collectives.Profile, bool) {
	for _, prof := range bench.Profiles() {
		if strings.ToLower(strings.ReplaceAll(prof.Name, "-", "")) == lib {
			return prof, true
		}
	}
	return collectives.Profile{}, false
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
