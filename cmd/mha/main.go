// Command mha is the repository's command-line front end: one binary
// whose first argument names the tool.
//
// Usage:
//
//	mha <tool> [flags]
//	mha verify -n 200 -seed 42
//	mha sched build -alg mha -nodes 4 -ppn 8 -hcas 2 -msg 262144
//	mha <tool> -h                     # that tool's flags or subcommands
//
// Every tool that takes a machine shape takes it the paper's way, as
// -nodes (N) x -ppn (L) x -hcas (H), declared once in shapeFlags. The
// tuning daemon is a program of its own, cmd/mhatuned.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"mha/internal/topology"
	"mha/internal/verify"
)

// tool is one named entry point: a top-level tool of mha, or a
// subcommand of one of them.
type tool struct {
	name, summary string
	run           func(args []string) error
}

var tools = []tool{
	{"bench", "regenerate the paper's tables and figures", runBench},
	{"cluster", "run collective jobs on one shared simulated fabric", sub("mha cluster", clusterCmds)},
	{"compose", "derive collectives from multicast/reduce pipelines", sub("mha compose", composeCmds)},
	{"explore", "model-check every interleaving of a small world", runExplore},
	{"fabric", "inspect fat-tree and dragonfly fabrics, sweep across them", sub("mha fabric", fabricCmds)},
	{"fault", "run registered variants under a fault schedule", runFault},
	{"lint", "run the project's static-analysis passes", runLint},
	{"model", "evaluate the paper's analytic cost models", runModel},
	{"osu", "OSU-style micro-benchmarks over the simulator", sub("mha osu", osuCmds)},
	{"sched", "build, analyze, run and search communication schedules", sub("mha sched", schedCmds)},
	{"trace", "render a collective's communication timeline", runTrace},
	{"verify", "run the differential-verification campaign", runVerify},
}

// usageError is an error that exits 2, as a flag the flag package cannot
// parse does: the command line asks for something the tool refuses
// before it starts.
type usageError struct{ error }

func main() {
	if err := sub("mha", tools)(os.Args[1:]); err != nil {
		// Only a tool the first argument names returns an error.
		fmt.Fprintf(os.Stderr, "mha %s: %v\n", os.Args[1], err)
		if errors.As(err, &usageError{}) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// sub returns the run function of a command whose first argument names
// one of cmds. Help prints the usage and exits 0; no name, or a name not
// in cmds, prints it and exits 2.
func sub(prog string, cmds []tool) func([]string) error {
	return func(args []string) error {
		help := false
		if len(args) > 0 {
			for _, c := range cmds {
				if c.name == args[0] {
					return c.run(args[1:])
				}
			}
			switch args[0] {
			case "-h", "-help", "--help", "help":
				help = true
			default:
				fmt.Fprintf(os.Stderr, "%s: unknown subcommand %q\n", prog, args[0])
			}
		}
		fmt.Fprintf(os.Stderr, "usage: %s <subcommand> [flags]\n\nsubcommands:\n", prog)
		for _, c := range cmds {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", c.name, c.summary)
		}
		fmt.Fprintf(os.Stderr, "\nrun '%s <subcommand> -h' for that subcommand's flags.\n", prog)
		if !help {
			os.Exit(2)
		}
		return nil
	}
}

// shapeFlags declares the machine shape, N nodes x L processes per node
// x H HCAs, on fs with the tool's defaults. The returned function, called
// after parsing, gives the block-layout cluster the flags describe; a
// shape topology.Validate refuses comes back with it as a usageError.
func shapeFlags(fs *flag.FlagSet, nodes, ppn, hcas int) func() (topology.Cluster, error) {
	n := fs.Int("nodes", nodes, "nodes (N)")
	l := fs.Int("ppn", ppn, "processes per node (L)")
	h := fs.Int("hcas", hcas, "HCAs, or network rails, per node (H)")
	return func() (topology.Cluster, error) {
		c := topology.Cluster{Nodes: *n, PPN: *l, HCAs: *h, Layout: topology.Block}
		if err := c.Validate(); err != nil {
			return c, usageError{err}
		}
		return c, nil
	}
}

// names lists the registered variants for help and error text.
func names() string {
	var out []string
	for _, a := range verify.Algorithms() {
		out = append(out, a.Name)
	}
	return strings.Join(out, ", ")
}
