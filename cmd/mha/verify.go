package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mha/internal/verify"
)

// runVerify runs the randomized differential-verification campaign:
// seeded scenario generation over every registered allgather variant, a
// byte-exact oracle on all ranks, simulator invariant audits (clock
// monotonicity, resource-busy conservation, drained mailboxes at
// teardown), and a same-seed determinism cross-check. Failing scenarios
// are shrunk to a one-line repro spec that -repro replays.
//
//	mha verify                              # 200 scenarios, seed 42
//	mha verify -n 50 -seed 7 -v             # smaller campaign, per-scenario log
//	mha verify -algs mha,ring               # restrict the variant set
//	mha verify -list                        # show registered variants
//	mha verify -repro "alg=mha nodes=2 ppn=2 hcas=1 msg=13 faults=none"
//
// The exit status is 0 when every scenario passes, 1 when one fails, so
// CI can gate on it directly, and 2 for a bad flag or repro spec.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("mha verify", flag.ExitOnError)
	var (
		n        = fs.Int("n", 200, "number of scenarios to generate")
		seed     = fs.Int64("seed", 42, "campaign seed (same seed, same scenarios)")
		algs     = fs.String("algs", "", "comma-separated variant names (default: all registered)")
		maxRanks = fs.Int("maxranks", 0, fmt.Sprintf("cap on nodes*ppn per scenario (default 48, at most %d)", verify.MaxScenarioRanks))
		budget   = fs.Int("shrink-budget", 0, "candidate evaluations per shrink (default 150)")
		noshrink = fs.Bool("noshrink", false, "report failures without minimizing them")
		verbose  = fs.Bool("v", false, "log every scenario as it runs")
		repro    = fs.String("repro", "", "replay one scenario spec instead of running a campaign")
		list     = fs.Bool("list", false, "list registered variants and exit")
	)
	fs.Parse(args)

	if *list {
		for _, a := range verify.Algorithms() {
			var cons []string
			if a.BlockOnly {
				cons = append(cons, "block-layout")
			}
			if a.SingleNode {
				cons = append(cons, "single-node")
			}
			if a.EvenPPN {
				cons = append(cons, "even-ppn")
			}
			note := ""
			if len(cons) > 0 {
				note = "  (" + strings.Join(cons, ", ") + ")"
			}
			fmt.Printf("%-14s%s\n", a.Name, note)
		}
		return nil
	}

	if *repro != "" {
		sc, err := verify.ParseSpec(*repro)
		if err != nil {
			return usageError{err}
		}
		vs := verify.Check(sc)
		if len(vs) == 0 {
			fmt.Printf("repro passed: no violations\n  %s\n", sc.Spec())
			return nil
		}
		fmt.Printf("repro FAILED: %d violations\n  %s\n", len(vs), sc.Spec())
		for _, v := range vs {
			fmt.Printf("  %s\n", v)
		}
		os.Exit(1)
	}

	opt := verify.Options{MaxRanks: *maxRanks, ShrinkBudget: *budget, NoShrink: *noshrink}
	if *algs != "" {
		for _, a := range strings.Split(*algs, ",") {
			opt.Algs = append(opt.Algs, strings.TrimSpace(a))
		}
	}
	var log io.Writer
	if *verbose {
		log = os.Stdout
	}
	opt.Log = log
	rep, err := verify.Campaign(*n, *seed, opt)
	if err != nil {
		return usageError{err}
	}

	names := make([]string, 0, len(rep.PerAlg))
	for name := range rep.PerAlg {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("verified %d scenarios (seed %d, %d checks incl. shrinking, 2 runs each for determinism)\n",
		rep.Scenarios, *seed, rep.Checks)
	for _, name := range names {
		fmt.Printf("  %-14s %d\n", name, rep.PerAlg[name])
	}
	if len(rep.Failures) > 0 {
		fmt.Printf("%d FAILING scenarios:\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Printf("  original: %s\n  shrunk:   %s\n", f.Scenario.Spec(), f.Shrunk.Spec())
			for _, v := range f.Violations {
				fmt.Printf("    %s\n", v)
			}
			fmt.Printf("  replay with: mha verify -repro %q\n", f.Shrunk.Spec())
		}
		os.Exit(1)
	}
	fmt.Println("all scenarios passed")
	return nil
}
