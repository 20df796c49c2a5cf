package explore

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"mha/internal/sim"
	"mha/internal/verify"
)

// Options tunes an exploration. Algs and the world shape are required.
type Options struct {
	// Algs names the registered variants to verify.
	Algs []string
	// World shape: Nodes*PPN ranks (<= MaxWorldRanks), HCAs rails/node.
	Nodes, PPN, HCAs int
	// Msg is the per-rank contribution in bytes.
	Msg int
	// Fabric is an internal/fabric spec ("" means flat).
	Fabric string
	// FaultBudget selects fault placements: 0 explores only the healthy
	// world, 1 adds every single (node, rail) Down placement. Larger
	// budgets are not supported.
	FaultBudget int
	// MaxExecs caps executions per (variant, placement); 0 means
	// DefaultMaxExecs. Hitting the cap marks the report incomplete.
	MaxExecs int
	// MaxCounterexamples stops a placement after this many distinct
	// failing schedules (default 3).
	MaxCounterexamples int
	// ShrinkBudget caps replay evaluations spent minimizing each
	// counterexample (default 60).
	ShrinkBudget int
	// Full disables the partial-order reduction and enumerates every
	// interleaving. Only tractable on tiny worlds; the determinism and
	// soundness tests use it to cross-check the reduced search.
	Full bool
	// Log, when non-nil, receives one line per (variant, placement).
	Log io.Writer
}

// DefaultMaxExecs bounds the executions of one (variant, placement)
// exploration when Options.MaxExecs is zero.
const DefaultMaxExecs = 50000

// A Counterexample is one failing schedule, replayable via its Spec.
type Counterexample struct {
	// Spec reproduces the failure as found; Shrunk is its minimized
	// still-failing form (== Spec when shrinking found nothing smaller).
	Spec, Shrunk string
	// Violations are the shrunk schedule's broken properties.
	Violations []verify.Violation
}

// A PlacementReport summarizes exploring one (variant, placement) pair.
type PlacementReport struct {
	Alg   string
	Fault Placement
	// Executions counts complete schedules run to a terminal state and
	// verified; Steps counts executed engine steps across all of them
	// (the visited-state count of the stateless search).
	Executions int
	Steps      int64
	// Decisions counts decision points created (frontiers with >= 2
	// events); MaxFrontier is the widest frontier seen.
	Decisions   int64
	MaxFrontier int
	// SpaceEstimate is the product of frontier widths along the canonical
	// execution: the unreduced interleaving count of that path. The
	// reduction's effectiveness is Executions versus this estimate.
	SpaceEstimate float64
	// BacktrackAdds and SleepSkips count race-analysis decisions: orders
	// scheduled for exploration, and orders provably covered by an
	// explored sibling subtree.
	BacktrackAdds, SleepSkips int64
	// Precise and Fallback count race-analysis branch outcomes.
	Precise, Fallback int64
	// RedundantExecs counts executions that fired a sleeping event (work
	// a sharper reduction would have avoided; always verified anyway).
	RedundantExecs int64
	// Complete is true when the backtrack sets drained: every
	// non-equivalent interleaving was visited.
	Complete        bool
	Counterexamples []Counterexample
}

// A Report aggregates an exploration across variants and placements.
type Report struct {
	Placements []PlacementReport
	// Executions/Steps/SpaceEstimate are sums over Placements; Complete
	// is their conjunction.
	Executions      int
	Steps           int64
	SpaceEstimate   float64
	Complete        bool
	Counterexamples int
}

// Run explores every (variant, placement) pair exhaustively and returns
// the aggregate report. The search is deterministic: identical options
// yield an identical report, byte for byte.
func Run(opt Options) (*Report, error) {
	if len(opt.Algs) == 0 {
		return nil, errors.New("explore: no algorithms selected")
	}
	if opt.FaultBudget < 0 || opt.FaultBudget > 1 {
		return nil, fmt.Errorf("explore: fault budget %d unsupported (want 0 or 1)", opt.FaultBudget)
	}
	if opt.MaxExecs <= 0 {
		opt.MaxExecs = DefaultMaxExecs
	}
	if opt.MaxCounterexamples <= 0 {
		opt.MaxCounterexamples = 3
	}
	if opt.ShrinkBudget <= 0 {
		opt.ShrinkBudget = 60
	}
	placements := []Placement{NoFault}
	if opt.FaultBudget == 1 {
		for n := 0; n < opt.Nodes; n++ {
			for r := 0; r < opt.HCAs; r++ {
				placements = append(placements, Placement{Node: n, Rail: r})
			}
		}
	}
	var jobs []Spec
	for _, alg := range opt.Algs {
		for _, pl := range placements {
			base := Spec{Alg: alg, Nodes: opt.Nodes, PPN: opt.PPN,
				HCAs: opt.HCAs, Msg: opt.Msg, Fabric: opt.Fabric, Fault: pl}
			if err := base.Validate(); err != nil {
				return nil, err
			}
			jobs = append(jobs, base)
		}
	}
	// Each (variant, placement) exploration is independent — its own
	// engine, world, and DFS stack — so they run concurrently. Results
	// land in job order and are aggregated sequentially, keeping the
	// report byte-identical regardless of worker count.
	prs := make([]PlacementReport, len(jobs))
	errs := make([]error, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore gonosim driver-side worker pool: each goroutine owns whole independent engines (one per exploration), never runs inside one, and results are joined in deterministic job order
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				prs[i], errs[i] = explorePlacement(opt, jobs[i])
			}
		}()
	}
	wg.Wait()
	rep := &Report{Complete: true}
	for i, pr := range prs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rep.Placements = append(rep.Placements, pr)
		rep.Executions += pr.Executions
		rep.Steps += pr.Steps
		rep.SpaceEstimate += pr.SpaceEstimate
		rep.Complete = rep.Complete && pr.Complete
		rep.Counterexamples += len(pr.Counterexamples)
		if opt.Log != nil {
			status := "complete"
			if !pr.Complete {
				status = "INCOMPLETE"
			}
			fmt.Fprintf(opt.Log, "%-10s fault=%-12s %6d executions %8d states  est %.3g  %s, %d counterexamples\n",
				pr.Alg, pr.Fault, pr.Executions, pr.Steps, pr.SpaceEstimate, status, len(pr.Counterexamples))
		}
	}
	return rep, nil
}

// runSpec executes the spec's scenario once under s, which forces the
// schedule. No trace is recorded: the search reads the steps s observes and
// the run's violations, nothing else.
func runSpec(base Spec, s sim.Scheduler) (verify.RunResult, error) {
	sc, err := base.scenario()
	if err != nil {
		return verify.RunResult{}, err
	}
	return verify.RunOnce(sc, nil, s), nil
}

// explorePlacement is the stateless DFS over schedules of one (variant,
// placement) pair: run, analyze races, backtrack at the deepest pending
// decision, repeat until the backtrack sets drain or a cap hits. Every
// replay runs the one scenario prepared for the pair on a world of its own.
func explorePlacement(opt Options, base Spec) (PlacementReport, error) {
	rep := PlacementReport{Alg: base.Alg, Fault: base.Fault, Complete: true}
	sc, err := base.scenario()
	if err != nil {
		return rep, err
	}
	prep := verify.Prepare(sc)
	defer prep.Release()
	var m metrics
	g := newGuided()
	for {
		res := prep.Run(nil, g)
		rep.Executions++
		rep.Steps += int64(len(g.steps))
		rep.Decisions += int64(len(g.points) - g.prefix)
		for _, pt := range g.points[g.prefix:] {
			if len(pt.frontier) > rep.MaxFrontier {
				rep.MaxFrontier = len(pt.frontier)
			}
		}
		if g.diverged != "" {
			return rep, fmt.Errorf("explore: %s %s: replay diverged: %s", base.Alg, base.Fault, g.diverged)
		}
		if rep.Executions == 1 {
			est := 1.0
			for _, pt := range g.points {
				est *= float64(len(pt.frontier))
			}
			rep.SpaceEstimate = est
		}
		if len(res.Violations) > 0 {
			found := base
			found.Choices = g.choices()
			ce := Counterexample{Spec: found.String()}
			shrunk, svs, _ := shrinkSpec(found, res.Violations, opt.ShrinkBudget)
			ce.Shrunk = shrunk.String()
			ce.Violations = svs
			rep.Counterexamples = append(rep.Counterexamples, ce)
			if len(rep.Counterexamples) >= opt.MaxCounterexamples {
				rep.Complete = false
				break
			}
		}
		if opt.Full {
			// Unreduced enumeration: every alternative at every decision.
			for _, pt := range g.points {
				for k := range pt.alt {
					if !pt.alt[k].done {
						pt.alt[k].backtrack = true
					}
				}
			}
		} else {
			g.analyze(&m)
		}
		rep.RedundantExecs += g.redundant
		// Deepest decision with an unexplored backtrack candidate; the
		// candidates are tried in ascending index order for determinism.
		depth, choice := -1, 0
		for i := len(g.points) - 1; i >= 0 && depth < 0; i-- {
			for k, c := range g.points[i].alt {
				if c.backtrack && !c.done {
					depth, choice = i, k
					break
				}
			}
		}
		if depth < 0 {
			break // backtrack sets drained: exploration complete
		}
		if rep.Executions >= opt.MaxExecs {
			rep.Complete = false
			break
		}
		pt := g.points[depth]
		pt.chosen = choice
		pt.alt[choice].done = true
		g.restart(depth + 1)
	}
	rep.BacktrackAdds = m.backtrackAdds
	rep.SleepSkips = m.sleepSkips
	rep.Precise, rep.Fallback = m.precise, m.fallback
	return rep, nil
}

// Replay runs one spec's forced schedule and returns its violations. A
// spec whose choices do not fit the world's actual decision frontiers —
// an index outside its frontier, or a non-canonical choice at a decision
// the execution never reached — is an error (it cannot correspond to a
// real execution). Zeros past the last decision are a longer spelling of
// the same schedule and stay legal.
func Replay(s Spec) ([]verify.Violation, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f := &forced{choices: s.Choices}
	res, err := runSpec(s, f)
	if err != nil {
		return nil, err
	}
	if f.diverged != "" {
		return nil, fmt.Errorf("explore: schedule does not replay: %s", f.diverged)
	}
	for d := f.made; d < len(s.Choices); d++ {
		if c := s.Choices[d]; c != 0 {
			return nil, fmt.Errorf("explore: schedule does not replay: choice %d at decision %d, but the execution made only %d decisions", c, d, f.made)
		}
	}
	return res.Violations, nil
}

// forced is Replay's scheduler: it takes the listed choices, canonical past
// their end, and observes no steps, so the engine collects no footprints.
type forced struct {
	choices  []int
	made     int // decisions made so far
	diverged string
}

// Pick implements sim.Scheduler.
func (f *forced) Pick(_ sim.Time, frontier []sim.EventInfo) int {
	d := f.made
	f.made++
	if d >= len(f.choices) {
		return 0
	}
	c := f.choices[d]
	if c < 0 || c >= len(frontier) {
		if f.diverged == "" {
			f.diverged = fmt.Sprintf("decision %d: choice %d outside %d-event frontier", d, c, len(frontier))
		}
		return 0
	}
	return c
}
