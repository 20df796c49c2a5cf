package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mha/internal/bench"
	"mha/internal/compose"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
	"mha/internal/verify"
)

// runFault runs the fault-injection campaigns: it executes registered
// variants (see mha verify -list) under a fault schedule (scripted in the
// small spec language of internal/faults, or derived deterministically
// from a seed) and prints a resilience table, healthy vs faulted latency
// per algorithm and message size, with the naive health-blind baseline
// on request, plus per-rail utilization summaries showing where the
// bytes went on the degraded machine.
//
//	mha fault                                       # demo schedule, all algorithms
//	mha fault -inline "down node=0 rail=1 until=40us"
//	mha fault -spec faults.txt -algs mha,ring -sizes 64K,1M
//	mha fault -random -seed 7                       # seeded random campaign
//	mha fault -naive                                # add the health-blind column
//	mha fault -chrome out.json                      # Chrome trace incl. fault windows
//	mha fault -timeline -width 120                  # ASCII Gantt of the faulted run
func runFault(args []string) error {
	fs := flag.NewFlagSet("mha fault", flag.ExitOnError)
	var (
		shape    = shapeFlags(fs, 4, 4, 2)
		sizes    = fs.String("sizes", "64K,256K,1M", "per-rank message sizes (comma-separated, K/M suffixes)")
		algs     = fs.String("algs", "mha,two-level,multi-leader,ring", "registered variants to run, comma-separated: "+names())
		specPath = fs.String("spec", "", "fault schedule file (see internal/faults spec format)")
		inline   = fs.String("inline", "", "fault schedule given inline, ';'-separated lines")
		random   = fs.Bool("random", false, "derive the schedule from -seed instead of a spec")
		seed     = fs.Int64("seed", 1, "seed for -random schedules and run jitter")
		horizon  = fs.Duration("horizon", 0, "horizon for -random schedules (default 10x the healthy run)")
		naive    = fs.Bool("naive", false, "also measure the health-blind (naive) baseline")
		chrome   = fs.String("chrome", "", "write a Chrome trace of the faulted run (first alg, largest size)")
		timeline = fs.Bool("timeline", false, "print an ASCII timeline of the faulted run")
		width    = fs.Int("width", 100, "timeline width in columns")
	)
	fs.Parse(args)

	topo, err := shape()
	if err != nil {
		return err
	}
	prm := netmodel.Thor()
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	algList, err := pickAlgorithms(*algs, topo)
	if err != nil {
		return err
	}

	sched, err := loadSchedule(*specPath, *inline, *random, *seed, sim.Duration(*horizon), topo, prm, sizeList, algList)
	if err != nil {
		return err
	}
	if err := sched.Check(topo.Nodes, topo.HCAs); err != nil {
		return err
	}

	fmt.Printf("cluster: %v\nfault schedule:\n%s\n", topo, indent(sched.String()))

	// The resilience table: healthy vs faulted latency per algorithm/size.
	cols := []string{"algorithm", "size", "healthy (us)", "faulted (us)", "slowdown"}
	if *naive {
		cols = append(cols, "naive (us)", "aware vs naive")
	}
	t := bench.NewTable("resilience under the fault schedule", cols...)
	var lastStats []mpi.RailStat
	for _, alg := range algList {
		for _, m := range sizeList {
			healthy, _ := bench.FaultedLatency(topo, prm, m, alg, nil, false)
			faulted, stats := bench.FaultedLatency(topo, prm, m, alg, sched, false)
			row := []interface{}{alg.Name, bench.SizeLabel(m),
				healthy.Micros(), faulted.Micros(),
				fmt.Sprintf("%.2fx", float64(faulted)/float64(healthy))}
			if *naive {
				blind, _ := bench.FaultedLatency(topo, prm, m, alg, sched, true)
				row = append(row, blind.Micros(), bench.Improvement(blind, faulted))
			}
			t.Add(row...)
			lastStats = stats
		}
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	if err := bench.FprintRailStats(os.Stdout, "per-rail utilization (last faulted run)", lastStats); err != nil {
		return err
	}

	if *chrome != "" || *timeline {
		return tracedRun(topo, sched, algList[0], sizeList[len(sizeList)-1], *seed, *chrome, *timeline, *width)
	}
	return nil
}

// tracedRun re-runs the faulted campaign's first algorithm at the largest
// size with tracing on, injecting the schedule's fault windows as events
// on each node's leader lane so the outage is visible alongside the
// traffic it displaced.
func tracedRun(topo topology.Cluster, sched *faults.Schedule, alg verify.Algorithm,
	m int, seed int64, chrome string, timeline bool, width int) error {
	rec := trace.New()
	w := mpi.New(mpi.Config{Topo: topo, Tracer: rec, Phantom: true, Faults: sched, Seed: seed})
	sendLen, recvLen := compose.Geometry(alg.Coll, topo.Size(), m)
	if err := w.Run(func(p *mpi.Proc) {
		alg.Run(p, w, mpi.Phantom(sendLen), mpi.Phantom(recvLen))
	}); err != nil {
		return err
	}
	for n := 0; n < topo.Nodes; n++ {
		for r := 0; r < topo.HCAs; r++ {
			for _, win := range sched.Windows(n, r, 0, w.Makespan()) {
				name := fmt.Sprintf("fault:node%d.rail%d frac=%.2f", n, r, win.Fraction)
				if win.Extra > 0 {
					name += fmt.Sprintf(" extra=%v", win.Extra)
				}
				rec.Add(trace.Event{
					Rank: n * topo.PPN, Cat: trace.CatFault,
					Name:  name,
					Start: win.From, End: win.To, Peer: -1,
				})
			}
		}
	}
	if timeline {
		fmt.Printf("\n%s under faults, %v, %s/rank\n", alg.Name, topo, bench.SizeLabel(m))
		fmt.Print(rec.Timeline(width))
	}
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s\n", rec.Len(), chrome)
	}
	return nil
}

// loadSchedule resolves the schedule from -spec, -inline, or -random; with
// none given it falls back to a small demo schedule exercising an outage
// window and a degraded rail.
func loadSchedule(specPath, inline string, random bool, seed int64, horizon sim.Duration,
	topo topology.Cluster, prm *netmodel.Params, sizes []int, algs []verify.Algorithm) (*faults.Schedule, error) {
	switch {
	case specPath != "":
		text, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return faults.Parse(string(text))
	case inline != "":
		return faults.Parse(strings.ReplaceAll(inline, ";", "\n"))
	case random:
		if horizon <= 0 {
			// Scale the campaign to the workload: ten healthy runs of the
			// largest size under the slowest algorithm.
			var worst sim.Duration
			for _, alg := range algs {
				if d, _ := bench.FaultedLatency(topo, prm, sizes[len(sizes)-1], alg, nil, false); d > worst {
					worst = d
				}
			}
			horizon = 10 * worst
		}
		return faults.Random(seed, topo.Nodes, topo.HCAs, sim.Time(horizon)), nil
	default:
		return faults.Parse("down node=0 rail=1 until=40us\ndegrade node=* rail=1 frac=0.5 from=40us")
	}
}

// pickAlgorithms resolves the -algs list against the registry and
// refuses a variant whose contract does not cover the cluster.
func pickAlgorithms(list string, topo topology.Cluster) ([]verify.Algorithm, error) {
	var out []verify.Algorithm
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := verify.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %q (have %s)", name, names())
		}
		sc := verify.Scenario{Alg: name, Cluster: topo}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func parseSizes(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		mult := 1
		switch {
		case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
			mult, s = 1<<20, s[:len(s)-1]
		case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
			mult, s = 1<<10, s[:len(s)-1]
		}
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", s)
		}
		out = append(out, v*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
