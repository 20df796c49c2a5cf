package sched

import (
	"fmt"
	"sort"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// The greedy/beam synthesizer: seed the beam with every lowered
// hand-written design (plus the greedy direct-rail construction), score
// each with the static analyzer, then locally mutate the best plans —
// step fusion, pinned-rail reassignment, stripe splitting — keeping the
// cheapest Beam survivors per round. The final pick simulates the
// finalists and the lowered baselines, so the emitted schedule's
// simulated makespan is never worse than the best lowering's (the
// measured pick is the schedule-space analogue of the tuner's measured
// dispatch).

// Candidate is one scored schedule.
type Candidate struct {
	Name  string
	Sched *Schedule
	// Cost is the analyzer's alpha-beta prediction; Makespan is the
	// simulated runtime (zero until measured — only finalists and the
	// lowered baselines are simulated).
	Cost     sim.Duration
	Makespan sim.Duration
}

// SynthOptions tunes the search.
type SynthOptions struct {
	// Beam is the number of survivors per round (default 4).
	Beam int
	// Rounds bounds the mutation rounds (default 6; the search also
	// stops when a round improves nothing).
	Rounds int
	// NoMeasure skips the final simulation pass: the best candidate is
	// then chosen purely by analyzer cost and Makespan stays zero.
	NoMeasure bool
	// Health is the steady rail-health vector (see ValidHealth): the
	// seeds are repaired off dead rails (ApplyHealth), every candidate
	// is priced health-aware, mutations never pin a dead rail, and the
	// final measurement runs under the equivalent fault schedule. Nil
	// means all rails healthy.
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
	// two-phase MHA both phase-2 flavors), measured unless NoMeasure —
	// the baselines the acceptance comparison is made against.
	Lowered []Candidate
	// Seeds holds every analyzer-scored starting point, cheapest first.
	Seeds []Candidate
	// Pruned records that the simulation pass was skipped because the
	// analytic margin exceeded PruneMargin (or NoMeasure was set).
	Pruned bool
}

func (o SynthOptions) withDefaults() SynthOptions {
	if o.Beam <= 0 {
		o.Beam = 4
	}
	if o.Rounds <= 0 {
		o.Rounds = 6
	}
	return o
}

// Synthesize searches schedule space for the given machine and message
// size and returns the best plan found together with the scored
// baselines.
func Synthesize(topo topology.Cluster, prm *netmodel.Params, msg int, opt SynthOptions) (*SynthResult, error) {
	if prm == nil {
		prm = netmodel.Thor()
	}
	opt = opt.withDefaults()
	if err := ValidHealth(opt.Health, topo.HCAs); err != nil {
		return nil, err
	}
	L := topo.PPN
	pow2N := topo.Nodes > 1 && topo.Nodes&(topo.Nodes-1) == 0

	// Seed pool: the canonical lowerings plus an MHA option grid and the
	// greedy direct construction, each repaired off dead rails before it
	// is scored.
	var seeds []Candidate
	addSeed := func(name string, s *Schedule) {
		if s == nil {
			return
		}
		for _, c := range seeds {
			if c.Name == name {
				return
			}
		}
		s = ApplyHealth(s, opt.Health)
		rep, err := AnalyzeHealth(s, prm, opt.Health)
		if err != nil {
			// A lowering that fails its own analysis is a bug; surface it
			// instead of silently searching around it.
			panic(fmt.Sprintf("sched: seed %s invalid: %v", name, err))
		}
		seeds = append(seeds, Candidate{Name: name, Sched: s, Cost: rep.Cost})
	}

	addSeed("ring", Ring(topo, msg))
	if rd := RecursiveDoubling(topo, msg); rd.Name == "rd" {
		addSeed("rd", rd)
	}
	mhaOK := topo.Nodes == 1 || topo.Layout == topology.Block
	if mhaOK {
		addSeed("mha-ring", TwoPhaseMHA(topo, prm, msg, MHAOptions{Offload: AutoOffload}))
		if pow2N {
			addSeed("mha-rd", TwoPhaseMHA(topo, prm, msg, MHAOptions{Phase2: Phase2RD, Offload: AutoOffload}))
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
						s := TwoPhaseMHA(topo, prm, msg, o)
						addSeed(fmt.Sprintf("%s-d%d", s.Name, d), s)
					}
				}
			}
		}
	}
	addSeed("direct-rail", DirectRail(topo, msg))

	sortCandidates(seeds)

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

	// Beam search over local mutations.
	beam := append([]Candidate(nil), seeds...)
	if len(beam) > opt.Beam {
		beam = beam[:opt.Beam]
	}
	best := beam[0]
	for round := 0; round < opt.Rounds; round++ {
		var next []Candidate
		next = append(next, beam...)
		for _, c := range beam {
			for _, mut := range mutate(c, prm, opt.Health) {
				next = append(next, mut)
			}
		}
		sortCandidates(next)
		next = dedupe(next)
		if len(next) > opt.Beam {
			next = next[:opt.Beam]
		}
		beam = next
		if beam[0].Cost >= best.Cost {
			break
		}
		best = beam[0]
	}

	res := &SynthResult{Lowered: lowered, Seeds: seeds}
	if opt.NoMeasure {
		res.Best, res.Pruned = best, true
		return res, nil
	}

	// Measured final pick: simulate the finalists and every lowered
	// baseline, choose the fastest. Including the baselines makes the
	// "never worse than the best hand-written lowering" guarantee
	// structural rather than hoped-for.
	finalists := append([]Candidate(nil), beam...)
	finalists = append(finalists, lowered...)
	finalists = dedupe(finalists)

	// Analytic pruning: when the model already separates the winner from
	// every rival by more than the margin, skip the simulations.
	if opt.PruneMargin > 0 {
		sortCandidates(finalists)
		margin := sim.Duration(float64(finalists[0].Cost) * (1 + opt.PruneMargin))
		if len(finalists) == 1 || finalists[1].Cost > margin {
			res.Best, res.Pruned = finalists[0], true
			return res, nil
		}
	}
	for i := range finalists {
		mk, err := SimulateHealth(topo, prm, finalists[i].Sched, opt.Health)
		if err != nil {
			return nil, fmt.Errorf("sched: simulating candidate %s: %v", finalists[i].Name, err)
		}
		finalists[i].Makespan = mk
	}
	for i := range res.Lowered {
		for _, f := range finalists {
			if f.Name == res.Lowered[i].Name {
				res.Lowered[i].Makespan = f.Makespan
			}
		}
	}
	sort.SliceStable(finalists, func(i, j int) bool {
		if finalists[i].Makespan != finalists[j].Makespan {
			return finalists[i].Makespan < finalists[j].Makespan
		}
		if finalists[i].Cost != finalists[j].Cost {
			return finalists[i].Cost < finalists[j].Cost
		}
		return finalists[i].Name < finalists[j].Name
	})
	res.Best = finalists[0]
	return res, nil
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
// per round, and fusion is skipped for schedules whose size would make
// re-analysis dominate the search.
const (
	mutationBudget = 8
	fuseMaxSteps   = 48
)

// mutate generates improved neighbors of a candidate: adjacent-step
// fusion, moving a pinned transfer off its rail, and splitting a large
// pinned transfer across an idle rail. Only mutants the analyzer
// accepts with a strictly lower cost survive; under a health vector the
// pricing is health-aware and dead rails are never pinned, so the search
// naturally migrates pinned traffic onto the surviving rails.
func mutate(c Candidate, prm *netmodel.Params, health []float64) []Candidate {
	var out []Candidate
	// full is asked before a neighbor is built: cloning the schedule and
	// formatting its name are the expensive part of a rejected one.
	full := func() bool { return len(out) >= mutationBudget }
	try := func(s *Schedule) {
		rep, err := AnalyzeHealth(s, prm, health)
		if err == nil && rep.Cost < c.Cost {
			out = append(out, Candidate{Name: s.Name, Sched: s, Cost: rep.Cost})
		}
	}

	// Step fusion: merging steps i and i+1 removes a synchronization
	// point; the analyzer rejects the merge when step i+1 consumed what
	// step i delivered.
	if len(c.Sched.Steps) <= fuseMaxSteps {
		for i := 0; i+1 < len(c.Sched.Steps); i++ {
			if full() {
				return out
			}
			s := c.Sched.Clone()
			s.Steps[i].Xfers = append(s.Steps[i].Xfers, s.Steps[i+1].Xfers...)
			s.Steps[i].Copies = append(s.Steps[i].Copies, s.Steps[i+1].Copies...)
			s.Steps = append(s.Steps[:i+1], s.Steps[i+2:]...)
			s.Name = fmt.Sprintf("%s+f%d", c.Name, i)
			try(s)
		}
	}

	// Rail reassignment and stripe splitting on pinned transfers.
	moves, splits := 0, 0
	for si := range c.Sched.Steps {
		st := &c.Sched.Steps[si]
		for xi := range st.Xfers {
			t := st.Xfers[xi]
			if t.Via != ViaRail {
				continue
			}
			if moves < mutationBudget {
				for r := 0; r < c.Sched.Topo.HCAs; r++ {
					if r == t.Rail || healthOf(health, r) <= 0 {
						continue
					}
					if full() {
						return out
					}
					s := c.Sched.Clone()
					s.Steps[si].Xfers[xi].Rail = r
					s.Name = fmt.Sprintf("%s+r%d.%d", c.Name, si, xi)
					try(s)
					moves++
					break
				}
			}
			if splits < mutationBudget && t.Len >= 2*prm.StripeThreshold {
				for r := 0; r < c.Sched.Topo.HCAs; r++ {
					if r == t.Rail || healthOf(health, r) <= 0 {
						continue
					}
					if full() {
						return out
					}
					s := c.Sched.Clone()
					half := t.Len / 2
					s.Steps[si].Xfers[xi].Len = half
					extra := t
					extra.Off, extra.Len, extra.Rail = t.Off+half, t.Len-half, r
					s.Steps[si].Xfers = append(s.Steps[si].Xfers, extra)
					s.Name = fmt.Sprintf("%s+s%d.%d", c.Name, si, xi)
					try(s)
					splits++
					break
				}
			}
		}
	}
	return out
}
