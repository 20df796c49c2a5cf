package main

import (
	"fmt"
	"time"

	"mha/internal/explore"
)

// exploreCap bounds the replays of each variant. Both variants have
// 36 864 reduced interleavings on 2x2x2; running them out takes 11 s a
// pass, too long for three passes within the driver's budget, so each
// exploration stops at the same deterministic point of its search tree.
const exploreCap = 20000

// exploreDPOR is the third use of sim: the Scheduler seam installed,
// footprints collected, a fresh 4-rank world built and torn down per
// replay. An operation is one explore.Run (one variant, healthy world,
// one worker).
type exploreDPOR struct {
	maxExecs int
}

func (*exploreDPOR) name() string { return "explore-dpor" }

func exploreOptions(alg string, maxExecs int) explore.Options {
	return explore.Options{Algs: []string{alg}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, MaxExecs: maxExecs}
}

func (ed *exploreDPOR) setUp(cfg config) error {
	ed.maxExecs = exploreCap
	if cfg.smoke {
		ed.maxExecs = exploreCap / 20
	}
	// Warm-up operation: the ring variant's whole space, healthy and under
	// each single-rail fault (5 placements x 144 replays).
	warm := exploreOptions("ring", 0)
	warm.FaultBudget = 1
	rep, err := explore.Run(warm)
	if err != nil {
		return err
	}
	if !rep.Complete || rep.Counterexamples != 0 {
		return fmt.Errorf("warm-up exploration of ring: complete=%v counterexamples=%d", rep.Complete, rep.Counterexamples)
	}
	return nil
}

func (ed *exploreDPOR) pass(tr *tracer) passResult {
	res := passResult{counts: map[string]float64{}}
	var steps, execs, decisions, skips int64
	for _, alg := range []string{"rd", "sched-mha"} {
		op := tr.begin(0, 0, "bench", harnessSpan)
		run := tr.begin(op, op, "explore", "explore.Run")
		t := time.Now()
		rep, err := explore.Run(exploreOptions(alg, ed.maxExecs))
		res.opSeconds = append(res.opSeconds, time.Since(t).Seconds())
		res.attempted++
		if err != nil {
			tr.end(run, nil)
			tr.end(op, nil)
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", alg, err))
			continue
		}
		pl := rep.Placements[0]
		tr.end(run, map[string]int64{"executions": int64(rep.Executions), "steps": rep.Steps,
			"decisions": pl.Decisions, "sleep_skips": pl.SleepSkips})
		tr.end(op, nil)
		// The cap is below either variant's space, so the search must stop
		// exactly at it, having found nothing.
		if rep.Executions != ed.maxExecs || rep.Counterexamples != 0 {
			res.failures = append(res.failures, fmt.Sprintf("%s: %d executions (want %d), %d counterexamples",
				alg, rep.Executions, ed.maxExecs, rep.Counterexamples))
		}
		res.signature += fmt.Sprintf("%s=%d/%d/%d/%d;", alg, rep.Executions, rep.Steps, pl.Decisions, pl.SleepSkips)
		steps += rep.Steps
		execs += int64(rep.Executions)
		decisions += pl.Decisions
		skips += pl.SleepSkips
	}
	res.counts["explore.execs"] = float64(execs)
	res.counts["explore.steps"] = float64(steps)
	res.counts["explore.decisions"] = float64(decisions)
	res.counts["explore.sleep_skips"] = float64(skips)
	return res
}

func (*exploreDPOR) tearDown()        {}
func (*exploreDPOR) finish() []string { return nil }
