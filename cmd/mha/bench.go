package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mha/internal/bench"
)

// runBench regenerates the tables and figures of the paper's evaluation
// (Section 5) from the simulator, plus the ablations listed in DESIGN.md.
//
//	mha bench -list                 # enumerate experiment ids
//	mha bench -fig 14b              # one experiment at full (paper) scale
//	mha bench -fig 11a,11b -quick   # several, at reduced scale
//	mha bench -all -quick           # the whole suite, CI-sized
//
// Full scale reproduces the paper's exact topologies (up to 32 nodes x 32
// PPN = 1024 simulated ranks) and takes a few minutes for the largest
// figures; -quick shrinks topologies 4x in each dimension and runs in
// seconds while preserving every qualitative shape.
func runBench(args []string) error {
	fs := flag.NewFlagSet("mha bench", flag.ExitOnError)
	var (
		fig   = fs.String("fig", "", "comma-separated experiment ids (see -list)")
		all   = fs.Bool("all", false, "run every experiment")
		quick = fs.Bool("quick", false, "reduced-scale topologies (seconds instead of minutes)")
		list  = fs.Bool("list", false, "list experiment ids and exit")
		timed = fs.Bool("time", false, "print wall-clock time per experiment")
		asCSV = fs.Bool("csv", false, "emit CSV tables instead of aligned text")
		tier1 = fs.String("tier1", "", "also write the tier-1 perf metrics (BENCH_tier1.json) to this path")
	)
	fs.Parse(args)
	bench.CSVMode = *asCSV

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	sc := bench.Full
	if *quick {
		sc = bench.Quick
	}

	var todo []bench.Experiment
	switch {
	case *all:
		todo = bench.Registry()
	case *fig != "":
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				return usageError{fmt.Errorf("unknown experiment %q; try -list", id)}
			}
			todo = append(todo, e)
		}
	default:
		if *tier1 == "" {
			fs.Usage()
			os.Exit(2)
		}
	}

	// The header keeps the name of the retired mhabench binary, so that
	// tables regenerated now diff clean against recorded ones
	// (full_results.txt).
	fmt.Printf("# mhabench scale=%s experiments=%d\n", sc, len(todo))
	for _, e := range todo {
		start := time.Now()
		if err := e.Run(os.Stdout, sc); err != nil {
			return fmt.Errorf("experiment %s failed: %v", e.ID, err)
		}
		if *timed {
			fmt.Printf("(%s took %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if *tier1 != "" {
		f, err := os.Create(*tier1)
		if err != nil {
			return err
		}
		err = bench.WriteTier1(f, sc)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing tier-1 metrics: %v", err)
		}
		fmt.Printf("wrote tier-1 metrics to %s\n", *tier1)
	}
	return nil
}
