package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/trace"
	"mha/internal/verify"
)

// runTrace renders communication timelines of the simulated collectives
// as ASCII Gantt charts: the reproduction of the paper's Figure 2 (a TAU
// trace of the flat ring allgather on 2 nodes x 2 PPN, exposing the
// intra-node bottleneck) and a tool for inspecting any registered variant
// (see mha verify -list).
//
//	mha trace                                          # Figure 2 (ring, 2x2)
//	mha trace -alg mha -nodes 4 -ppn 4                 # the proposed design
//	mha trace -alg mha-intra -nodes 1 -ppn 4 -listing  # per-event log
//	mha trace -alg compose-a2a                         # a derived alltoall
func runTrace(args []string) error {
	fs := flag.NewFlagSet("mha trace", flag.ExitOnError)
	var (
		alg     = fs.String("alg", "ring", "registered variant: "+names())
		shape   = shapeFlags(fs, 2, 2, 2)
		size    = fs.Int("size", 256<<10, "per-rank message size in bytes")
		width   = fs.Int("width", 100, "timeline width in columns")
		listing = fs.Bool("listing", false, "print the per-event log instead of the chart")
		chrome  = fs.String("chrome", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	)
	fs.Parse(args)

	a, ok := verify.ByName(*alg)
	if !ok {
		return usageError{fmt.Errorf("unknown algorithm %q (have %s)", *alg, names())}
	}
	topo, err := shape()
	if err != nil {
		return err
	}
	sc := verify.Scenario{Alg: *alg, Cluster: topo, Msg: *size}
	if err := sc.Validate(); err != nil {
		return usageError{err}
	}
	if err := lowers(*alg, topo, *size); err != nil {
		return err
	}

	rec := trace.New()
	w := mpi.New(mpi.Config{
		Topo:    topo,
		Tracer:  rec,
		Phantom: true,
	})
	sendLen, recvLen := compose.Geometry(a.Coll, w.Topo().Size(), *size)
	err = w.Run(func(p *mpi.Proc) {
		a.Run(p, w, mpi.Phantom(sendLen), mpi.Phantom(recvLen))
	})
	if err != nil {
		return err
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), *chrome)
		return nil
	}

	fmt.Printf("%s %s, %v, %d bytes/rank\n", *alg, a.Coll, w.Topo(), *size)
	if *listing {
		fmt.Print(rec.Listing())
		return nil
	}
	fmt.Print(rec.Timeline(*width))
	return nil
}
