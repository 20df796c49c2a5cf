// Command mhatrace renders communication timelines of the simulated
// collectives as ASCII Gantt charts — the reproduction of the paper's
// Figure 2 (a TAU trace of the flat ring allgather on 2 nodes x 2 PPN,
// exposing the intra-node bottleneck) and a tool for inspecting any
// registered variant (see mhaverify -list).
//
// Usage:
//
//	mhatrace                                          # Figure 2 (ring, 2x2)
//	mhatrace -alg mha -nodes 4 -ppn 4                 # the proposed design
//	mhatrace -alg mha-intra -nodes 1 -ppn 4 -listing  # per-event log
//	mhatrace -alg compose-a2a                         # a derived alltoall
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/topology"
	"mha/internal/trace"
	"mha/internal/verify"
)

func main() {
	var (
		alg     = flag.String("alg", "ring", "registered variant: "+names())
		nodes   = flag.Int("nodes", 2, "number of nodes")
		ppn     = flag.Int("ppn", 2, "processes per node")
		hcas    = flag.Int("hcas", 2, "HCAs per node")
		size    = flag.Int("size", 256<<10, "per-rank message size in bytes")
		width   = flag.Int("width", 100, "timeline width in columns")
		listing = flag.Bool("listing", false, "print the per-event log instead of the chart")
		chrome  = flag.String("chrome", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	)
	flag.Parse()

	a, ok := verify.ByName(*alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q (have %s)\n", *alg, names())
		os.Exit(2)
	}
	sc := verify.Scenario{Alg: *alg, Nodes: *nodes, PPN: *ppn, HCAs: *hcas, Layout: topology.Block, Msg: *size}
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rec := trace.New()
	w := mpi.New(mpi.Config{
		Topo:    sc.Topo(),
		Tracer:  rec,
		Phantom: true,
	})
	sendLen, recvLen := compose.Geometry(a.Coll, w.Topo().Size(), *size)
	err := w.Run(func(p *mpi.Proc) {
		a.Run(p, w, mpi.Phantom(sendLen), mpi.Phantom(recvLen))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), *chrome)
		return
	}

	fmt.Printf("%s %s, %v, %d bytes/rank\n", *alg, a.Coll, w.Topo(), *size)
	if *listing {
		fmt.Print(rec.Listing())
		return
	}
	fmt.Print(rec.Timeline(*width))
}

// names lists the registered variants for help and error text.
func names() string {
	var out []string
	for _, a := range verify.Algorithms() {
		out = append(out, a.Name)
	}
	return strings.Join(out, ", ")
}
