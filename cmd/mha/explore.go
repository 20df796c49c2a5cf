package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mha/internal/explore"
	"mha/internal/verify"
)

// runExplore exhaustively model-checks allgather variants on small
// worlds. Where mha verify samples random scenarios, mha explore
// enumerates: for a fixed world shape it visits every meaningfully
// distinct interleaving of same-virtual-time events and (with -faults)
// every single-rail Down placement, checking the byte-exact oracle and
// the teardown audits at every terminal state. Dynamic partial-order
// reduction keeps the visited schedules a small fraction of the raw
// interleaving space; the report prints both counts so the reduction is
// auditable. Failing schedules are shrunk to a one-line repro spec that
// -repro replays.
//
//	mha explore                             # ring+rd+sched-mha on 2 nodes x 2 ranks x 2 rails
//	mha explore -algs ring -nodes 1 -ppn 3  # one variant, another shape
//	mha explore -faults                     # add every single-rail-fault placement
//	mha explore -list                       # show registered variants
//	mha explore -repro "alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=0.2.1"
//
// The exit status is 0 when every explored schedule passes and 1
// otherwise, so CI can gate on it directly.
func runExplore(args []string) error {
	fs := flag.NewFlagSet("mha explore", flag.ExitOnError)
	var (
		algs    = fs.String("algs", "ring,rd,sched-mha", "comma-separated variant names")
		shape   = shapeFlags(fs, 2, 2, 2)
		msg     = fs.Int("msg", 8, "per-rank contribution in bytes")
		fabspec = fs.String("fabric", "", "fabric spec (e.g. ft:arity=2,levels=2,over=2); empty means flat")
		faults  = fs.Bool("faults", false, "also explore every single-rail Down placement")
		maxExec = fs.Int("max-execs", 0, "executions per (variant, placement) before giving up (default 50000)")
		budget  = fs.Int("shrink-budget", 0, "replay evaluations per counterexample shrink (default 60)")
		quiet   = fs.Bool("q", false, "suppress the per-placement progress lines")
		repro   = fs.String("repro", "", "replay one schedule spec instead of exploring")
		list    = fs.Bool("list", false, "list registered variants and exit")
	)
	fs.Parse(args)

	if *list {
		for _, a := range verify.Algorithms() {
			fmt.Println(a.Name)
		}
		return nil
	}

	if *repro != "" {
		spec, err := explore.ParseSpec(*repro)
		if err != nil {
			return err
		}
		vs, err := explore.Replay(spec)
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			fmt.Printf("repro passed: no violations\n  %s\n", spec)
			return nil
		}
		fmt.Printf("repro FAILED: %d violations\n  %s\n", len(vs), spec)
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}

	// explore.Run refuses a bad shape itself, as a failed run.
	topo, _ := shape()
	opt := explore.Options{
		Nodes: topo.Nodes, PPN: topo.PPN, HCAs: topo.HCAs, Msg: *msg, Fabric: *fabspec,
		MaxExecs: *maxExec, ShrinkBudget: *budget,
	}
	if *faults {
		opt.FaultBudget = 1
	}
	for _, a := range strings.Split(*algs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			opt.Algs = append(opt.Algs, a)
		}
	}
	var log io.Writer
	if !*quiet {
		log = os.Stdout
	}
	opt.Log = log
	rep, err := explore.Run(opt)
	if err != nil {
		return err
	}

	fmt.Printf("explored %d executions (%d engine steps) of ~%.3g unreduced interleavings across %d placements\n",
		rep.Executions, rep.Steps, rep.SpaceEstimate, len(rep.Placements))
	if !rep.Complete {
		fmt.Println("exploration INCOMPLETE: an execution cap was hit; raise -max-execs or shrink the world")
	}
	if rep.Counterexamples == 0 {
		if rep.Complete {
			fmt.Println("all interleavings verified")
		}
	} else {
		fmt.Printf("%d FAILING schedules:\n", rep.Counterexamples)
		for _, pr := range rep.Placements {
			for _, ce := range pr.Counterexamples {
				fmt.Printf("  original: %s\n  shrunk:   %s\n", ce.Spec, ce.Shrunk)
				for _, v := range ce.Violations {
					fmt.Printf("    %s\n", v)
				}
				fmt.Printf("  replay with: mha explore -repro %q\n", ce.Shrunk)
			}
		}
	}
	if rep.Counterexamples > 0 || !rep.Complete {
		os.Exit(1)
	}
	return nil
}
