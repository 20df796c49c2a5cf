package main

import (
	"flag"
	"fmt"
	"os"

	"mha/internal/bench"
	"mha/internal/fabric"
	"mha/internal/netmodel"
	"mha/internal/topology"
)

// fabricCmds inspect the structured inter-node networks of
// internal/fabric and sweep the allgather family across them.
//
//	mha fabric describe -fabric ft:arity=2,levels=2,over=2 -nodes 8
//	mha fabric route -fabric dfly:groups=2,routers=2,nodes=2 -nodes 8 -src 0 -dst 7
//	mha fabric route -fabric ft:arity=2,levels=2,over=2 -nodes 4 -all
//	mha fabric sweep            # quick fabric x algorithm table
//	mha fabric sweep -full
//
// describe prints the link structure a spec builds over a cluster; route
// prints the deterministic shared-link path between two nodes (or every
// pair); sweep reruns the bench fabric experiment, so its output matches
// the checked-in golden byte for byte.
var fabricCmds = []tool{
	{"describe", "print the links a fabric spec builds over a cluster", fabricDescribe},
	{"route", "print the shared links between two nodes, or every pair", fabricRoute},
	{"sweep", "run the fabric x algorithm experiment", fabricSweep},
}

// fabricFlags declares the spec and cluster flags describe and route
// share; the returned function builds the network, over the cluster it
// also returns, after parsing.
func fabricFlags(fs *flag.FlagSet) func() (*fabric.Network, topology.Cluster, error) {
	specText := fs.String("fabric", "ft:arity=2,levels=2,over=2", "fabric spec (flat, ft:..., dfly:...)")
	shape := shapeFlags(fs, 8, 2, 2)
	return func() (*fabric.Network, topology.Cluster, error) {
		spec, err := fabric.ParseSpec(*specText)
		if err != nil {
			return nil, topology.Cluster{}, err
		}
		topo, err := shape()
		if err != nil {
			return nil, topo, err
		}
		nw, err := fabric.Build(nil, spec, topo, netmodel.Thor())
		return nw, topo, err
	}
}

func fabricDescribe(args []string) error {
	fs := flag.NewFlagSet("mha fabric describe", flag.ExitOnError)
	build := fabricFlags(fs)
	fs.Parse(args)
	nw, _, err := build()
	if err != nil {
		return err
	}
	nw.Describe(os.Stdout)
	return nil
}

func fabricRoute(args []string) error {
	fs := flag.NewFlagSet("mha fabric route", flag.ExitOnError)
	build := fabricFlags(fs)
	src := fs.Int("src", 0, "source node")
	dst := fs.Int("dst", 1, "destination node")
	all := fs.Bool("all", false, "print every pairwise route")
	fs.Parse(args)
	nw, topo, err := build()
	if err != nil {
		return err
	}
	printRoute := func(s, d int) {
		fmt.Printf("node%d -> node%d:", s, d)
		links := nw.Route(s, d)
		if len(links) == 0 {
			fmt.Print(" (no shared links)")
		}
		for _, l := range links {
			fmt.Printf(" %s", l.Name)
		}
		fmt.Println()
	}
	nodes := topo.Nodes
	if *all {
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if s != d {
					printRoute(s, d)
				}
			}
		}
		return nil
	}
	if *src < 0 || *src >= nodes || *dst < 0 || *dst >= nodes {
		return fmt.Errorf("route %d -> %d outside a %d-node cluster", *src, *dst, nodes)
	}
	printRoute(*src, *dst)
	return nil
}

func fabricSweep(args []string) error {
	fs := flag.NewFlagSet("mha fabric sweep", flag.ExitOnError)
	full := fs.Bool("full", false, "run the paper-scale sweep instead of the quick one")
	fs.Parse(args)
	ex, ok := bench.ByID("fabric")
	if !ok {
		return fmt.Errorf("the fabric experiment is not registered")
	}
	sc := bench.Quick
	if *full {
		sc = bench.Full
	}
	return ex.Run(os.Stdout, sc)
}
