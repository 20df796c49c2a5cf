// Command benchmark is the repository's performance benchmark: four
// workloads, two clocks (virtual numbers are named virt_*, everything
// else is host time), per-layer probes and a traced run. BENCHMARK.json
// at the repository root describes it; README.md explains the metrics.
//
// It measures every layer from outside, by timing calls into the public
// functions of mha/internal/...; nothing inside the program is changed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart is the earliest instant this process can see by itself;
// run.sh passes an earlier one (BENCH_T0_NS) taken before exec.
var processStart = time.Now()

// minPasses is the fewest passes a run makes, however short -seconds is.
const minPasses = 3

// outDir receives the span files of traced runs (relative to the working
// directory, the repository root under run.sh). It is git-ignored.
const outDir = ".bench_build/out"

// config is what the flags select.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
}

// passResult is what one pass of a workload's fixed job produced.
type passResult struct {
	// opSeconds holds the host latency of every operation, in run order.
	opSeconds []float64
	// failures describes each failed operation; attempted counts all.
	attempted int
	failures  []string
	// signature renders every deterministic output of the pass (virtual
	// latencies, event counts, body hashes). It must be identical in
	// every pass of a run.
	signature string
	// counts are exact numbers reported beside the metrics; timings are
	// further host timings, reported but never compared exactly.
	counts  map[string]float64
	timings map[string]float64
}

// A workload is one fixed job. Every pass is preceded by a timed setUp
// and followed by tearDown, so setup_s is a median over as many set-ups
// as there are passes.
type workload interface {
	name() string
	// setUp makes the pass's inputs from the seed and runs the untimed
	// warm-up operation.
	setUp(cfg config) error
	// pass runs the fixed job once, recording spans when tr is non-nil.
	pass(tr *tracer) passResult
	// tearDown releases what setUp acquired.
	tearDown()
	// finish runs once after the last pass, for checks that need a
	// pass's outputs; it returns failure descriptions.
	finish() []string
}

func workloads() []workload {
	return []workload{&paperSweep{}, &verifyPayload{}, &exploreDPOR{}, &tunerServe{}}
}

// runReport is the outcome of one untraced run of one workload.
type runReport struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64 // end-to-end metrics by name
	passSecs  []float64          // per repetition: the pass, its set-up, its median operation latency
	setupSecs []float64
	opP50s    []float64
	counts    map[string]float64
	timings   map[string]float64
}

// timedPass runs setUp, one pass and tearDown, returning the set-up
// seconds, the pass seconds and the pass's result.
func timedPass(w workload, cfg config, tr *tracer) (setup, secs float64, res passResult, err error) {
	t := time.Now()
	if err = w.setUp(cfg); err != nil {
		return 0, 0, passResult{}, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	setup = time.Since(t).Seconds()
	t = time.Now()
	res = w.pass(tr)
	secs = time.Since(t).Seconds()
	w.tearDown()
	return setup, secs, res, nil
}

// runWorkload measures one workload untraced. Set-up, pass and tear-down
// repeat for cfg.seconds: at least minPasses times, and after that only
// while one more repetition as long as the longest so far still ends
// within the window, so that a run's length does not depend on how fast
// the host happens to be.
//
// Each host metric is the least of its per-repetition values, not their
// median: the runner is a few cores of a shared host, its neighbours slow
// every repetition of some tens of seconds by 10-20% and never speed one
// up, so the fastest repetition is the one that says most about the code
// and least about the neighbours (README.md, "Baseline"). Medians and
// extremes are printed beside it.
func runWorkload(w workload, cfg config, initSecs float64) (*runReport, error) {
	rep := &runReport{workload: w.name(), correct: true, counts: map[string]float64{}}
	signature := ""
	var opBest []float64 // each operation's least latency over the passes
	start := time.Now()
	longest := 0.0
	for n := 0; ; n++ {
		if cfg.smoke && n == 1 {
			break
		}
		if elapsed := time.Since(start).Seconds(); n >= minPasses && elapsed+longest > cfg.seconds {
			break
		}
		t := time.Now()
		setup, secs, res, err := timedPass(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t).Seconds())
		rep.setupSecs = append(rep.setupSecs, setup)
		rep.passSecs = append(rep.passSecs, secs)
		rep.opP50s = append(rep.opP50s, median(res.opSeconds))
		// A seed puts the operations in the same order in every pass, so an
		// index names the same operation throughout the run.
		if n == 0 {
			opBest = res.opSeconds
		}
		for i := range min(len(opBest), len(res.opSeconds)) {
			opBest[i] = min(opBest[i], res.opSeconds[i])
		}
		rep.attempted += res.attempted
		rep.failed += len(res.failures)
		rep.failures = append(rep.failures, res.failures...)
		if n == 0 {
			signature = res.signature
			rep.counts, rep.timings = res.counts, res.timings
		} else if res.signature != signature {
			rep.correct = false
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d: deterministic outputs differ from pass 0", n))
		}
	}
	if extra := w.finish(); len(extra) > 0 {
		rep.correct = false
		rep.failures = append(rep.failures, extra...)
	}
	if rep.failed > 0 {
		rep.correct = false
	}
	rep.metrics = map[string]float64{
		"setup_s":   initSecs + slices.Min(rep.setupSecs),
		"pass_s":    slices.Min(rep.passSecs),
		"op_p50_us": median(opBest) * 1e6,
	}
	return rep, nil
}

// initSeconds is the time from process start (as run.sh saw it, when it
// said) to now: exec, runtime start-up, package initialisation with the
// algorithm registries, and flag parsing.
func initSeconds() float64 {
	start := processStart
	if v, err := strconv.ParseInt(os.Getenv("BENCH_T0_NS"), 10, 64); err == nil {
		if t := time.Unix(0, v); t.Before(start) && start.Sub(t) < time.Minute {
			start = t
		}
	}
	return time.Since(start).Seconds()
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) error {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printEnvironment(cfg config) {
	fmt.Printf("# go %s, GOMAXPROCS %d, NumCPU %d, seed %d, seconds %g\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seed, cfg.seconds)
}

// printReport prints the end-to-end table of one untraced run.
func printReport(rep *runReport) {
	fmt.Printf("\n== %s: %d passes, %d operations attempted, %d failed (fail_ratio %d/%d)\n",
		rep.workload, len(rep.passSecs), rep.attempted, rep.failed, rep.failed, rep.attempted)
	for _, d := range endToEnd {
		fmt.Printf("  %-12s %14.6g %-4s (%s is better, bound %g%%)\n",
			d.Name, rep.metrics[d.Name], d.Unit, d.Better, d.Bound*100)
	}
	for _, row := range []struct {
		name    string
		samples []float64
	}{{"pass_s", rep.passSecs}, {"setup_s (less start-up)", rep.setupSecs}, {"op_p50_s (per pass)", rep.opP50s}} {
		fmt.Printf("  %-24s samples: n=%d min=%.4g median=%.4g max=%.4g\n", row.name,
			len(row.samples), slices.Min(row.samples), median(row.samples), slices.Max(row.samples))
	}
	for _, extra := range []map[string]float64{rep.counts, rep.timings} {
		for _, k := range sortedKeys(extra) {
			fmt.Printf("  %-28s %.10g\n", k, extra[k])
		}
	}
	printFailures(rep.failures)
}

// printFailures lists the first failures in full and counts the rest.
func printFailures(failures []string) {
	const shown = 20
	for i, f := range failures {
		if i == shown {
			fmt.Printf("  ... and %d more\n", len(failures)-shown)
			break
		}
		fmt.Printf("  FAILED %s\n", f)
	}
}

func selectWorkloads(name string) ([]workload, error) {
	all := workloads()
	if name == "all" {
		return all, nil
	}
	var names []string
	for _, w := range all {
		if w.name() == name {
			return []workload{w}, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

func run() error {
	var (
		cfg       config
		name      = flag.String("workload", "all", "workload to run: paper-sweep, verify-payload, explore-dpor, tuner-serve or all")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer probes, one untraced and one traced pass, span file under "+outDir)
		selfcheck = flag.Bool("selfcheck", false, "run every selected workload twice and compare the two sets against the bounds")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measure for this long: as many passes as fit, and at least three")
	flag.BoolVar(&cfg.smoke, "smoke", false, "every workload at about 1/20 scale, one pass")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1, have %d", *trace)
	}
	initSecs := initSeconds()
	// Every workload runs one goroutine at a time (the engine hands control
	// from process to process; the HTTP client waits for the server). With
	// two Ps each hand-off may wake another OS thread, and on the runner's
	// two shared vCPUs that wake-up is a hypervisor's to deliver: passes
	// take 1.6 times as long and spread three times as wide. One P keeps
	// the hand-offs inside the Go scheduler, so the numbers are the code's.
	runtime.GOMAXPROCS(1)
	ws, err := selectWorkloads(*name)
	if err != nil {
		return err
	}
	printEnvironment(cfg)
	switch {
	case *selfcheck:
		return runSelfcheck(ws, cfg, initSecs)
	case *trace == 1:
		probes := map[string]float64{}
		if err := layerProbes(probes); err != nil {
			return err
		}
		for _, w := range ws {
			if err := runTraced(w, cfg, probes); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range ws {
		rep, err := runWorkload(w, cfg, initSecs)
		if err != nil {
			return err
		}
		printReport(rep)
		if err := printResult(rep.correct, rep.attempted, rep.failed, endToEnd, rep.metrics); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
