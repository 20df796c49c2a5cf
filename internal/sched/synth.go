package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// The greedy/beam synthesizer: seed the beam with every lowered
// hand-written design (plus the greedy direct-rail construction), score
// each with the static analyzer, then fuse adjacent steps of the best
// plans, keeping the cheapest beamWidth survivors per round. Fusion is
// the only neighbor: pinned-rail moves and stripe splits were measured
// over 2 800 tuner keys and never accepted once (DESIGN.md §8). The
// final pick is a branch and bound over the finalists and the lowered
// baselines: each is either simulated or proven slower than the pick by
// a lower bound — its cost or its floor — so the emitted schedule's
// simulated makespan is never worse than the best lowering's (the
// measured pick is the schedule-space analogue of the tuner's measured
// dispatch).

// Candidate is one scored schedule.
type Candidate struct {
	Name  string
	Sched *Schedule
	// Cost is the analyzer's alpha-beta prediction. Makespan is the
	// runtime the final pick measured: simulated or, where Exact is set,
	// the Cost of a bounded finalist on a machine where such a finalist
	// simulates at exactly its cost (see exactWhenBounded). It stays zero
	// on a seed that was not a finalist, on a finalist its lower bound
	// ruled out — a bounded one by its cost, an unbounded one by its
	// floor — and on everything a pruned search returns; Measure fills it
	// for a lowered baseline.
	Cost     sim.Duration
	Makespan sim.Duration
	Exact    bool
	// bounded marks a construction whose simulated makespan is exactly
	// its Cost wherever exactWhenBounded holds, degraded rails included
	// (TestBoundedFinalistsNeverBeatTheirCost is the gate): set per seed
	// in seeds, inherited by a fusion from its parent.
	bounded bool
}

// SynthOptions describes the machine state and the pruning margin.
type SynthOptions struct {
	// Health is the steady rail-health vector (see ValidHealth): the
	// seeds are repaired off dead rails (ApplyHealth), every candidate
	// is priced health-aware, and the final measurement runs under the
	// equivalent fault schedule. Nil means all rails healthy.
	Health []float64
	// PruneMargin, when positive, is the analytic-pruning knob the
	// autotuner service uses: if the cheapest candidate's analyzer cost
	// undercuts every other finalist's by more than this fraction, the
	// simulation pass is skipped and the analytic pick is emitted with
	// Pruned set (the model is only consulted when it is ambiguous).
	PruneMargin float64
}

// SynthResult is the search outcome.
type SynthResult struct {
	// Best is the emitted schedule.
	Best Candidate
	// Lowered holds the canonical hand-written lowerings (ring, rd,
	// two-phase MHA both phase-2 flavors) — the baselines the acceptance
	// comparison is made against. A row's Makespan is set only if the
	// final pick simulated it; a caller that reports every row as
	// simulated measures the rest with Measure.
	Lowered []Candidate
	// Seeds holds every analyzer-scored starting point, cheapest first.
	Seeds []Candidate
	// Pruned records that the simulation pass was skipped because the
	// analytic margin exceeded PruneMargin.
	Pruned bool
	// Search counts what the search did to get there.
	Search Search
}

// Search is where one Synthesize spent its effort, in deterministic
// counts: mutation rounds, parents walked by the analyzer, neighbors
// considered — each rejected on the step it changes, or priced there at
// no less than what it replaces, or built and fully analyzed — how many
// of the analyzed were accepted, finalists simulated, finalists priced
// exactly at their cost without a simulation, and finalists a lower
// bound ruled out.
type Search struct {
	Rounds, Walks                                     int
	Considered, RejectedLocally, NotCheaper, Analyzed int
	Accepted, Simulated, Exact, Skipped               int
}

func (s Search) String() string {
	return fmt.Sprintf("%d rounds, %d walks; %d neighbors: %d rejected locally, %d not cheaper, %d analyzed, %d accepted; %d simulated, %d exact, %d skipped",
		s.Rounds, s.Walks, s.Considered, s.RejectedLocally, s.NotCheaper, s.Analyzed, s.Accepted, s.Simulated, s.Exact, s.Skipped)
}

// The beam keeps beamWidth survivors per round for at most searchRounds
// rounds; the search also stops when a round improves nothing.
const (
	beamWidth    = 4
	searchRounds = 6
)

// Synthesize searches schedule space for the given machine and message
// size and returns the best plan found together with the scored
// baselines. The final pick simulates only finalists whose lower bound
// does not exceed the fastest makespan already known: an unbounded
// finalist its floor rules out, rd often among them, keeps Makespan
// zero, and Measure fills it where it is a lowered baseline.
func Synthesize(topo topology.Cluster, prm *netmodel.Params, msg int, opt SynthOptions) (*SynthResult, error) {
	if prm == nil {
		prm = netmodel.Thor()
	}
	if err := ValidHealth(opt.Health, topo.HCAs); err != nil {
		return nil, err
	}
	sr := &search{prm: prm, health: opt.Health}
	res, finalists := sr.finalists(topo, msg)

	// Analytic pruning: when the model already separates the winner from
	// every rival by more than the margin, skip the simulations.
	if opt.PruneMargin > 0 {
		margin := sim.Duration(float64(finalists[0].Cost) * (1 + opt.PruneMargin))
		if len(finalists) == 1 || finalists[1].Cost > margin {
			res.Best, res.Pruned, res.Search = finalists[0], true, sr.stats
			return res, nil
		}
	}

	// Measured final pick, by branch and bound. Every finalist has a lower
	// bound on its makespan: a bounded one its cost, an unbounded one its
	// floor (analysis.floor). The finalists are taken lowest bound first,
	// and none is simulated or priced once its bound is above the fastest
	// makespan known so far: it and every finalist after it are strictly
	// slower than that and can neither win nor tie. Every lowered baseline
	// is a finalist, so each is measured or proven slower than the pick,
	// which keeps "never worse than the best hand-written lowering"
	// structural.
	//
	// The bounds stand only where the gates have looked (exactWhenBounded).
	// There a bounded finalist simulates at exactly its cost, healthy or
	// degraded, so it also takes its cost as its makespan without a
	// simulation, and no run ends before its busiest resource has drained.
	// Outside it every bound is zero: every finalist is simulated and none
	// is cut.
	exact := exactWhenBounded(topo, prm, msg)
	lower := make(map[string]sim.Duration, len(finalists))
	for _, f := range finalists {
		switch {
		case !exact: // every bound stays zero
		case f.bounded:
			lower[f.Name] = f.Cost
		default:
			lb, err := sr.a.floor(f.Sched, prm, opt.Health)
			if err != nil {
				return nil, fmt.Errorf("sched: bounding candidate %s: %v", f.Name, err)
			}
			lower[f.Name] = lb
		}
	}
	slices.SortStableFunc(finalists, func(a, b Candidate) int { return cmp.Compare(lower[a.Name], lower[b.Name]) })
	n := 0
	var fastest sim.Duration
	for ; n < len(finalists); n++ {
		f := &finalists[n]
		if n > 0 && lower[f.Name] > fastest {
			break
		}
		if f.bounded && exact {
			f.Makespan, f.Exact = f.Cost, true
			sr.stats.Exact++
		} else {
			mk, err := SimulateHealth(topo, prm, f.Sched, opt.Health)
			if err != nil {
				return nil, fmt.Errorf("sched: simulating candidate %s: %v", f.Name, err)
			}
			f.Makespan = mk
			sr.stats.Simulated++
		}
		if n == 0 || f.Makespan < fastest {
			fastest = f.Makespan
		}
	}
	measured := finalists[:n]
	sr.stats.Skipped = len(finalists) - n
	res.Search = sr.stats
	for i := range res.Lowered {
		for _, f := range measured {
			if f.Name == res.Lowered[i].Name && !f.Exact {
				res.Lowered[i].Makespan = f.Makespan
			}
		}
	}
	res.Best = slices.MinFunc(measured, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(a.Makespan, b.Makespan), cmp.Compare(a.Cost, b.Cost), strings.Compare(a.Name, b.Name))
	})
	return res, nil
}

// finalists runs the search up to its final pick. It returns the result
// so far (seeds and lowered baselines) and the finalists, cheapest
// first: the last beam plus every lowered baseline.
func (sr *search) finalists(topo topology.Cluster, msg int) (*SynthResult, []Candidate) {
	seeds := sr.seeds(topo, msg)

	// The canonical hand-written lowerings serve as the comparison
	// baselines; recover them from the seed pool by name.
	var lowered []Candidate
	for _, name := range []string{"ring", "rd", "mha-ring", "mha-rd"} {
		for _, c := range seeds {
			if c.Name == name {
				lowered = append(lowered, c)
			}
		}
	}

	// Beam search over step fusions.
	beam := append([]Candidate(nil), seeds[:min(len(seeds), beamWidth)]...)
	best := beam[0].Cost
	for round := 0; round < searchRounds; round++ {
		sr.stats.Rounds++
		var next []Candidate
		next = append(next, beam...)
		for _, c := range beam {
			next = append(next, sr.mutate(c)...)
		}
		sortCandidates(next)
		next = dedupe(next)
		beam = next[:min(len(next), beamWidth)]
		if beam[0].Cost >= best {
			break
		}
		best = beam[0].Cost
	}

	finalists := append([]Candidate(nil), beam...)
	finalists = dedupe(append(finalists, lowered...))
	sortCandidates(finalists)
	return &SynthResult{Lowered: lowered, Seeds: seeds}, finalists
}

// exactWhenBounded reports whether the final pick's bound holds, and
// with it whether a bounded finalist may take its cost as its makespan:
// the calibration, the cluster and the message size are inside what
// TestBoundedFinalistsNeverBeatTheirCost simulates — the Thor
// calibration on a homogeneous block or cyclic cluster of at most 16
// nodes, 16 ranks a node, 128 ranks and 4 rails, at up to 1 MiB, under
// any rail health. Outside it the simulator charges what the analyzer
// does not model (posting overhead, jitter, NUMA sockets, per-node rail
// counts and per-rail rates, CMA congestion at higher ppn), so there
// every finalist is simulated.
func exactWhenBounded(topo topology.Cluster, prm *netmodel.Params, msg int) bool {
	return *prm == *netmodel.Thor() &&
		(topo.Layout == topology.Block || topo.Layout == topology.Cyclic) &&
		topo.Sockets <= 1 && len(topo.NodeHCAs) == 0 && len(topo.RailBW) == 0 &&
		topo.Nodes <= 16 && topo.PPN <= 16 && topo.Size() <= 128 && topo.HCAs <= 4 && msg <= 1<<20
}

// Measure simulates, under the health vector the search ran with, every
// lowered baseline the final pick did not simulate (Makespan zero) and
// the pick itself if it was priced exactly, for a caller that reports
// every row as simulated.
func (r *SynthResult) Measure(topo topology.Cluster, prm *netmodel.Params, health []float64) error {
	for i := range r.Lowered {
		c := &r.Lowered[i]
		if c.Makespan != 0 {
			continue
		}
		mk, err := SimulateHealth(topo, prm, c.Sched, health)
		if err != nil {
			return fmt.Errorf("sched: simulating lowering %s: %v", c.Name, err)
		}
		c.Makespan = mk
	}
	if b := &r.Best; b.Exact {
		mk, err := SimulateHealth(topo, prm, b.Sched, health)
		if err != nil {
			return fmt.Errorf("sched: simulating pick %s: %v", b.Name, err)
		}
		b.Makespan, b.Exact = mk, false
	}
	return nil
}

// seeds is the search's starting pool, cheapest first: the canonical
// lowerings plus an MHA option grid and the greedy direct construction,
// each repaired off dead rails before it is scored. A seed is bounded
// when its construction is one the gate has shown never to simulate
// faster than the analyzer prices it: the ring on a block layout, the
// AutoOffload MHA lowerings, and the grid's overlapped plans without an
// offload tail. Everything else can simulate below its cost (DESIGN.md
// §8).
//
// The MHA seeds share phase 1: it is built once per distinct offload, and
// the analysis walks it once and resumes every plan on it from there.
func (sr *search) seeds(topo topology.Cluster, msg int) []Candidate {
	L := topo.PPN
	pow2N := topo.Nodes > 1 && topo.Nodes&(topo.Nodes-1) == 0
	var seeds []Candidate
	addSeed := func(name string, s *Schedule, bounded bool, pre *prefix) {
		if s == nil {
			return
		}
		for _, c := range seeds {
			if c.Name == name {
				return
			}
		}
		s = ApplyHealth(s, sr.health)
		rep, err := sr.analyzeSeed(s, pre)
		if err != nil {
			// A lowering that fails its own analysis is a bug; surface it
			// instead of silently searching around it.
			panic(fmt.Sprintf("sched: seed %s invalid: %v", name, err))
		}
		if sr.seedReports != nil {
			sr.seedReports[name] = rep
		}
		seeds = append(seeds, Candidate{Name: name, Sched: s, Cost: rep.Cost, bounded: bounded})
	}

	// On a block layout one ring transfer per node leaves it in a step; on
	// a cyclic one every transfer does, and the analyzer serializes on a
	// rail what the runtime overlaps, so the ring is bounded only here.
	block := topo.Nodes == 1 || topo.Layout == topology.Block
	addSeed("ring", Ring(topo, msg), block, nil)
	if rd := RecursiveDoubling(topo, msg); rd.Name == "rd" {
		addSeed("rd", rd, false, nil)
	}
	if block {
		// Each part of the MHA plans is built and validated once per
		// synthesis (mhaParts).
		parts := mhaParts{phase1: map[int]*prefix{}, rest: map[MHAOptions][]Step{}}
		mha := func(name string, o MHAOptions, bounded bool) {
			s, pre := parts.plan(topo, sr.prm, msg, o)
			addSeed(name, s, bounded, pre)
		}
		mha("mha-ring", MHAOptions{Offload: AutoOffload}, true)
		if pow2N {
			mha("mha-rd", MHAOptions{Phase2: Phase2RD, Offload: AutoOffload}, true)
		}
		// Option grid around the canonical MHA plans.
		offloads := []int{0}
		if L > 1 {
			offloads = append(offloads, L-1)
		}
		for _, d := range offloads {
			for _, p2 := range []Phase2Alg{Phase2Ring, Phase2RD} {
				if p2 == Phase2RD && !pow2N {
					continue
				}
				for _, seq := range []bool{false, true} {
					for _, push := range []bool{false, true} {
						o := MHAOptions{Phase2: p2, Offload: d, Sequential: seq, Push: push}
						mha(fmt.Sprintf("%s-d%d", o.name(), d), o, d == 0 && !seq)
					}
				}
			}
		}
	}
	addSeed("direct-rail", DirectRail(topo, msg), false, nil)
	sortCandidates(seeds)
	return seeds
}

// prefix is a phase 1 the MHA seeds with one offload share: its steps,
// and once the first of them is analyzed, the analysis stopped after them.
type prefix struct {
	steps []Step
	at    *checkpoint
}

// analyzeSeed is analyze for a seed, which its construction validated.
// A seed that begins with pre's steps (none when pre is nil) is analyzed
// after them from where the first such seed's analysis stood.
func (sr *search) analyzeSeed(s *Schedule, pre *prefix) (*Report, error) {
	a := &sr.a
	var cp *checkpoint
	if pre != nil {
		cp = pre.at
	}
	if err := a.begin(s, sr.prm, sr.health, nil, cp); err != nil {
		return nil, err
	}
	from := 0
	if cp != nil {
		from = cp.steps
	} else if pre != nil {
		for ; from < len(pre.steps); from++ {
			a.step(from, &s.Steps[from])
		}
		pre.at = a.save(from)
	}
	return a.finishFrom(s, from)
}

func sortCandidates(cs []Candidate) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Cost != cs[j].Cost {
			return cs[i].Cost < cs[j].Cost
		}
		return cs[i].Name < cs[j].Name
	})
}

func dedupe(cs []Candidate) []Candidate {
	seen := map[string]bool{}
	out := cs[:0]
	for _, c := range cs {
		if seen[c.Name] {
			continue
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out
}

// mutationBudget bounds how many neighbors one candidate contributes
// per round. Fusion is skipped for schedules of more than fuseMaxSteps
// steps: the bound was set when every fusion cost a whole analysis, and
// it stays because lifting it changes which mutants exist for rings of
// 50 ranks and more, that is, decisions the tuner has pinned.
const (
	mutationBudget = 8
	fuseMaxSteps   = 48
)

// search is the state of one Synthesize: the one analysis every seed,
// walk and surviving mutant goes through, and the counters.
type search struct {
	prm    *netmodel.Params
	health []float64
	a      analysis
	tmp    Step // the fused step of the neighbor in hand
	stats  Search
	// seedReports, when a test sets it, receives every seed's Report by
	// name, as the shared analysis produced it.
	seedReports map[string]*Report
}

func (sr *search) analyze(s *Schedule) (*Report, error) {
	return sr.a.run(s, sr.prm, sr.health, nil)
}

// neighbor is the fusion of steps si and si+1 of a parent and, after the
// walk, the analyzer's verdict on the fused step: ok if it passes the
// read and pin checks where it stands, then price what it costs and old
// what the parent pays for the two steps it replaces.
type neighbor struct {
	si         int
	ok         bool
	price, old sim.Duration
}

// neighbors lists the fusions of s in the order the search tries them:
// neighbor i fuses steps i and i+1.
func neighbors(s *Schedule) []neighbor {
	if len(s.Steps) > fuseMaxSteps {
		return nil
	}
	var qs []neighbor
	for i := 0; i+1 < len(s.Steps); i++ {
		qs = append(qs, neighbor{si: i})
	}
	return qs
}

// changed writes the fused step into dst, reusing dst's slices. Transfer
// order is kept: step si's transfers, then step si+1's.
func (q *neighbor) changed(dst *Step, steps []Step) {
	a, b := &steps[q.si], &steps[q.si+1]
	dst.Xfers = append(append(dst.Xfers[:0], a.Xfers...), b.Xfers...)
	dst.Copies = append(append(dst.Copies[:0], a.Copies...), b.Copies...)
}

// build is the neighbor as a schedule of its own.
func (q *neighbor) build(c Candidate) *Schedule {
	s := c.Sched.Clone()
	q.changed(&s.Steps[q.si], c.Sched.Steps)
	s.Steps = slices.Delete(s.Steps, q.si+1, q.si+2)
	s.Name = fmt.Sprintf("%s+f%d", c.Name, q.si)
	return s
}

// walk takes the analysis through the (valid) parent once, stopping
// before each step to quote the fusion that starts there. Up to its step
// a neighbor is the parent, so the tables are the ones its own analysis
// would have there. After it the holds and round-robin cursors are the
// parent's again — a fusion keeps the transfer order and is only ok if
// step si+1 reads nothing step si delivers — so every later step prices
// as in the parent and the neighbor costs exactly parent - old + price.
func (sr *search) walk(s *Schedule, qs []neighbor) error {
	if len(qs) == 0 {
		return nil
	}
	sr.stats.Walks++
	a := &sr.a
	// A parent is a seed or a mutant the full analysis accepted: valid.
	if err := a.begin(s, sr.prm, sr.health, nil, nil); err != nil {
		return err
	}
	for si := range s.Steps {
		if si < len(qs) {
			q := &qs[si]
			q.changed(&sr.tmp, s.Steps)
			q.price, q.ok = a.quote(si, &sr.tmp)
		}
		a.step(si, &s.Steps[si])
	}
	for i := range qs {
		q := &qs[i]
		q.old = a.rep.StepCosts[q.si] + a.rep.StepCosts[q.si+1]
	}
	return nil
}

// mutate generates improved neighbors of a candidate by fusing adjacent
// steps. One walk of the parent gives each fusion's verdict from the
// step it makes; those that pass and are strictly cheaper are built and
// fully analyzed, and only what the full analysis accepts at a strictly
// lower cost survives. Under a health vector the pricing is health-aware.
func (sr *search) mutate(c Candidate) []Candidate {
	qs := neighbors(c.Sched)
	if sr.walk(c.Sched, qs) != nil {
		return nil // a parent the analyzer cannot begin on has no valid neighbor
	}
	var out []Candidate
	for i := 0; i < len(qs) && len(out) < mutationBudget; i++ {
		q := &qs[i]
		sr.stats.Considered++
		switch {
		case !q.ok:
			sr.stats.RejectedLocally++
		case q.price >= q.old:
			sr.stats.NotCheaper++
		default:
			s := q.build(c)
			sr.stats.Analyzed++
			if rep, err := sr.analyze(s); err == nil && rep.Cost < c.Cost {
				sr.stats.Accepted++
				out = append(out, Candidate{Name: s.Name, Sched: s, Cost: rep.Cost, bounded: c.bounded})
			}
		}
	}
	return out
}
