package sched

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// boundKey is one machine state of the bound's gate.
type boundKey struct {
	topo   topology.Cluster
	msg    int
	health []float64
}

func (k boundKey) String() string {
	return fmt.Sprintf("%dx%dx%d/%v/%d/%v", k.topo.Nodes, k.topo.PPN, k.topo.HCAs, k.topo.Layout, k.msg, k.health)
}

// boundGrid is the machine states the bound is gated on: the benchmark's
// 55 tuner keys (the 128-rank one included), the dead-rail and three-rail
// degraded keys of the tuner's pinned decisions, cyclic layouts, healthy
// machines of one, three and four rails, the corners of what
// exactWhenBounded admits (16 nodes, 16 ppn, 128 ranks, 1 MiB), a sweep
// of 1-8 nodes by 1-8 ppn from 1 KiB to 1 MiB, and degraded machines:
// slow, very slow and dead rails of two, three and four, from 1 B to
// 1 MiB, where the analyzer must charge a slow rail's whole occupation
// and route round-robin traffic off a dead rail as the runtime does.
func boundGrid() []boundKey {
	var ks []boundKey
	for _, nodes := range []int{2, 4, 8} {
		for _, ppn := range []int{2, 4, 8} {
			for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
				for _, health := range [][]float64{nil, {1, 0.5}} {
					ks = append(ks, boundKey{topology.New(nodes, ppn, 2), msg, health})
				}
			}
		}
	}
	ks = append(ks,
		boundKey{topology.New(8, 16, 2), 64 << 10, nil},
		boundKey{topology.New(4, 4, 2), 64 << 10, []float64{0, 1}},
		boundKey{topology.New(2, 4, 3), 256 << 10, []float64{1, 0.5, 0.25}})
	for _, shape := range [][2]int{{2, 4}, {4, 2}, {4, 4}, {1, 8}, {8, 2}} {
		for _, msg := range []int{4 << 10, 1 << 20} {
			topo := topology.New(shape[0], shape[1], 2)
			topo.Layout = topology.Cyclic
			ks = append(ks, boundKey{topo, msg, nil})
		}
	}
	for _, hcas := range []int{1, 3, 4} {
		for _, shape := range [][2]int{{2, 4}, {4, 4}, {8, 2}} {
			for _, msg := range []int{4 << 10, 256 << 10} {
				ks = append(ks, boundKey{topology.New(shape[0], shape[1], hcas), msg, nil})
			}
		}
	}
	for _, shape := range [][3]int{{16, 1, 2}, {16, 8, 2}, {16, 2, 4}, {1, 16, 2}, {4, 16, 1}} {
		for _, msg := range []int{1, 64 << 10, 1 << 20} {
			ks = append(ks, boundKey{topology.New(shape[0], shape[1], shape[2]), msg, nil})
		}
	}
	for nodes := 1; nodes <= 8; nodes++ {
		for ppn := 1; ppn <= 8; ppn++ {
			for _, msg := range []int{1 << 10, 32 << 10, 1 << 20} {
				ks = append(ks, boundKey{topology.New(nodes, ppn, 2), msg, nil})
			}
		}
	}
	// With one rail dead among three or four, 1 B and 4 KiB go
	// round-robin: there the cursor must not skip a second rail past the
	// dead one (2x4x4 and 8x2x4 at [0.75 0 1 1], 4x4x3 at [0.75 0 1]).
	degraded := [][]float64{
		{0.5, 1}, {0.25, 1}, {0.5, 0.5}, {1, 1.0 / 64}, {0.75, 0.5}, {0, 1}, {1, 0},
		{0.75, 0, 1}, {1, 0.5, 0}, {0.75, 0, 1, 1}, {0, 0.5, 1, 0.25},
	}
	for _, health := range degraded {
		for _, shape := range [][2]int{{2, 4}, {4, 4}, {8, 2}} {
			for _, msg := range []int{1, 4 << 10, 64 << 10, 1 << 20} {
				ks = append(ks, boundKey{topology.New(shape[0], shape[1], len(health)), msg, health})
			}
		}
	}
	return ks
}

// gateRun is one key of boundGrid taken through the search up to its
// final pick, with every seed's Report as the shared analysis made it.
type gateRun struct {
	boundKey
	res       *SynthResult
	finalists []Candidate
	reports   map[string]*Report
}

// gateRuns is the search's pass over boundGrid, made once for the tests
// that read it.
var gateRuns = sync.OnceValue(func() []gateRun {
	prm := netmodel.Thor()
	var runs []gateRun
	for _, k := range boundGrid() {
		sr := &search{prm: prm, health: k.health, seedReports: map[string]*Report{}}
		res, finalists := sr.finalists(k.topo, k.msg)
		runs = append(runs, gateRun{k, res, finalists, sr.seedReports})
	}
	return runs
})

// TestBoundedFinalistsNeverBeatTheirCost is the gate the final pick's
// branch and bound stands on: every seed and every finalist Synthesize
// marks bounded simulates at exactly the price the analyzer gives it, on
// every key of boundGrid, healthy or degraded. That is what lets the pick
// stop at a bounded finalist that costs more than the fastest makespan so
// far, and take a bounded finalist's cost as its makespan, everywhere
// exactWhenBounded admits. Marking any other construction bounded fails
// it: rd, direct-rail, the ring on a cyclic layout, each sequential and
// each offload-tail grid seed all simulate below their cost somewhere on
// the grid.
func TestBoundedFinalistsNeverBeatTheirCost(t *testing.T) {
	prm := netmodel.Thor()
	checked, degraded, exact := 0, 0, 0
	for _, run := range gateRuns() {
		k := run.boundKey
		if !exactWhenBounded(k.topo, prm, k.msg) {
			t.Errorf("%v: a key of the gate outside exactWhenBounded, where the final pick simulates every finalist", k)
			continue
		}
		// Many bounded seeds are one schedule under several names (the
		// option grid collapses onto the AutoOffload plans): once each.
		var seen []*Schedule
		for _, c := range slices.Concat(run.res.Seeds, run.finalists) {
			if !c.bounded || slices.ContainsFunc(seen, func(s *Schedule) bool { return sameSteps(s, c.Sched) }) {
				continue
			}
			seen = append(seen, c.Sched)
			mk, err := SimulateHealth(k.topo, prm, c.Sched, k.health)
			if err != nil {
				t.Fatalf("%v %s: %v", k, c.Name, err)
			}
			checked++
			if k.health != nil {
				degraded++
			}
			switch {
			case mk < c.Cost:
				t.Errorf("%v: bounded %s simulates in %d ns, below its cost %d ns", k, c.Name, int64(mk), int64(c.Cost))
			case mk != c.Cost:
				t.Errorf("%v: bounded %s simulates in %d ns, not at its cost %d ns", k, c.Name, int64(mk), int64(c.Cost))
			default:
				exact++
			}
		}
	}
	t.Logf("%d bounded schedules, %d of them under a health vector; %d simulated at exactly their cost", checked, degraded, exact)
}

// TestFloorIsALowerBound is the gate the final pick's cut of an
// unbounded finalist stands on: on every key of boundGrid, every
// unbounded finalist — the schedules whose floor the pick reads — once
// per distinct schedule, simulates no faster than its floor, and its
// floor is no more than its cost (item 3(i) of ROADMAP.md, per
// schedule). Planting Cost as the floor fails it: rd simulates below
// its cost at 4x2x2 / 4 KiB / [1 0.5]. TestFloorIsALowerBoundOnEverySeed
// (build tag sweep) adds every unbounded seed.
func TestFloorIsALowerBound(t *testing.T) { checkFloors(t, false) }

// checkFloors is TestFloorIsALowerBound, over the unbounded seeds too
// when seeds is set.
func checkFloors(t *testing.T, seeds bool) {
	prm := netmodel.Thor()
	var a analysis
	checked := 0
	var ratio float64
	for _, run := range gateRuns() {
		k := run.boundKey
		pool := run.finalists
		if seeds {
			pool = slices.Concat(pool, run.res.Seeds)
		}
		var seen []*Schedule
		for _, c := range pool {
			if c.bounded || slices.ContainsFunc(seen, func(s *Schedule) bool { return sameSteps(s, c.Sched) }) {
				continue
			}
			seen = append(seen, c.Sched)
			floor, err := a.floor(c.Sched, prm, k.health)
			if err != nil {
				t.Fatalf("%v %s: %v", k, c.Name, err)
			}
			mk, err := SimulateHealth(k.topo, prm, c.Sched, k.health)
			if err != nil {
				t.Fatalf("%v %s: %v", k, c.Name, err)
			}
			if floor > mk {
				t.Errorf("%v: %s simulates in %d ns, below its floor %d ns", k, c.Name, int64(mk), int64(floor))
			}
			if floor > c.Cost {
				t.Errorf("%v: %s costs %d ns, below its floor %d ns", k, c.Name, int64(c.Cost), int64(floor))
			}
			checked++
			ratio += float64(floor) / float64(mk)
		}
	}
	t.Logf("%d unbounded schedules; mean floor/simulated %.2f", checked, ratio/float64(checked))
}

// TestExactPricingOnlyWhereGated: a bounded finalist is priced at its
// cost only on inputs TestBoundedFinalistsNeverBeatTheirCost covers.
// A calibration the analyzer does not fully model, a cluster that is not
// homogeneous, a custom layout and a shape or size past the gate's grid
// all have every finalist simulated, on a key where the Thor
// calibration prices one exactly.
func TestExactPricingOnlyWhereGated(t *testing.T) {
	const msg = 64 << 10
	topo := topology.New(4, 4, 2)
	jitter := netmodel.Thor()
	jitter.Jitter = 0.05
	numa := topology.New(4, 4, 2)
	numa.Sockets = 2
	railBW := topology.New(4, 4, 2)
	railBW.RailBW = []float64{1, 0.5}
	nodeHCAs := topology.New(4, 4, 2)
	nodeHCAs.NodeHCAs = []int{2, 1, 2, 1}
	custom := topology.New(2, 2, 2)
	custom.Layout, custom.Ranks = topology.Custom, [][]int{{0, 3}, {1, 2}}
	cases := []struct {
		name string
		topo topology.Cluster
		prm  *netmodel.Params
		msg  int
	}{
		{"posting overhead", topo, netmodel.ThorWithOverhead(sim.FromMicros(0.5)), msg},
		{"numa", numa, netmodel.NumaThor(), msg},
		{"jitter", topo, jitter, msg},
		{"hdr200", topo, netmodel.ThetaGPU(), msg},
		{"sockets", numa, netmodel.Thor(), msg},
		{"rail rates", railBW, netmodel.Thor(), msg},
		{"node rails", nodeHCAs, netmodel.Thor(), msg},
		{"custom layout", custom, netmodel.Thor(), msg},
		{"32 ppn", topology.New(1, 32, 2), netmodel.Thor(), msg},
		{"8 rails", topology.New(2, 4, 8), netmodel.Thor(), msg},
		{"4 MiB", topology.New(2, 2, 2), netmodel.Thor(), 4 << 20},
	}
	if res, err := Synthesize(topo, netmodel.Thor(), msg, SynthOptions{}); err != nil || res.Search.Exact == 0 {
		t.Fatalf("Thor on %v: err %v, %v: no finalist priced exactly, so the cases below show nothing", topo, err, res.Search)
	}
	for _, tc := range cases {
		res, err := Synthesize(tc.topo, tc.prm, tc.msg, SynthOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Search.Exact != 0 || res.Search.Simulated == 0 || res.Best.Exact {
			t.Errorf("%s: %v; want every finalist the bound keeps simulated", tc.name, res.Search)
		}
	}
}

// TestBoundOnlyWhereGated: past 16 ranks a node bounded MHA seeds
// simulate below their cost (0.654x for mha-rd-push-d0 at 8x32x2), so
// there the final pick neither prices a bounded finalist exactly nor
// lets one end the loop: every finalist is simulated.
func TestBoundOnlyWhereGated(t *testing.T) {
	for _, topo := range []topology.Cluster{topology.New(8, 32, 2), topology.New(2, 64, 2), topology.New(2, 128, 2)} {
		res, err := Synthesize(topo, netmodel.Thor(), 64<<10, SynthOptions{})
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if res.Search.Exact != 0 || res.Search.Skipped != 0 {
			t.Errorf("%v: %v; want every finalist simulated", topo, res.Search)
		}
	}
}

// TestSeedReportsMatchFreshAnalysis: the synthesizer assembles its MHA
// seeds from parts it shares between them, prices every seed on one
// shared analysis, and resumes every MHA plan after the phase 1 it shares
// with the others. On every key of boundGrid (the benchmark's 55 keys
// among them) each MHA seed must still be what TwoPhaseMHA builds,
// repaired off dead rails, and each seed's Report must deep-equal a fresh
// AnalyzeHealth of the same schedule.
func TestSeedReportsMatchFreshAnalysis(t *testing.T) {
	prm := netmodel.Thor()
	seeds, plans := 0, 0
	for _, run := range gateRuns() {
		k := run.boundKey
		pool := map[string]*Schedule{}
		for _, c := range run.res.Seeds {
			pool[c.Name] = c.Sched
			want, err := AnalyzeHealth(c.Sched, prm, k.health)
			if err != nil {
				t.Fatalf("%v %s: %v", k, c.Name, err)
			}
			if got := run.reports[c.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: the search's report\n%+v\ndiffers from a fresh analysis\n%+v", k, c.Name, got, want)
			}
			seeds++
		}
		for name, o := range mhaSeedOptions(k.topo) {
			got, ok := pool[name]
			if !ok {
				t.Errorf("%v: no seed %s", k, name)
				continue
			}
			if want := ApplyHealth(TwoPhaseMHA(k.topo, prm, k.msg, o), k.health); !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: the assembled seed differs from TwoPhaseMHA's plan with %+v", k, name, o)
			}
			plans++
		}
	}
	t.Logf("%d seeds, %d of them MHA plans", seeds, plans)
}

// mhaSeedOptions names every MHA seed seeds makes on topo, with the
// options TwoPhaseMHA builds it from.
func mhaSeedOptions(topo topology.Cluster) map[string]MHAOptions {
	if topo.Nodes > 1 && topo.Layout != topology.Block {
		return nil
	}
	pow2N := topo.Nodes > 1 && topo.Nodes&(topo.Nodes-1) == 0
	opts := map[string]MHAOptions{"mha-ring": {Offload: AutoOffload}}
	if pow2N {
		opts["mha-rd"] = MHAOptions{Phase2: Phase2RD, Offload: AutoOffload}
	}
	for _, d := range slices.Compact([]int{0, max(topo.PPN-1, 0)}) {
		for _, p2 := range []Phase2Alg{Phase2Ring, Phase2RD} {
			for _, seq := range []bool{false, true} {
				for _, push := range []bool{false, true} {
					if p2 == Phase2RD && !pow2N {
						continue
					}
					o := MHAOptions{Phase2: p2, Offload: d, Sequential: seq, Push: push}
					opts[fmt.Sprintf("%s-d%d", o.name(), d)] = o
				}
			}
		}
	}
	return opts
}

// TestMHAPartsAnyOrder: every MHA seed's plan, built through one shared
// mhaParts in sorted name order and again in reverse, deep-equals what
// TwoPhaseMHA builds in one Builder, and its prefix is its phase 1.
// Between them the two orders build plans in all four ways: whole, with
// phase 1 alone, with the rest alone, and from two kept parts. The plans
// are compared only once all of them are built, so none may have written
// into a part another one shares.
func TestMHAPartsAnyOrder(t *testing.T) {
	prm := netmodel.Thor()
	const msg = 64 << 10
	for _, shape := range [][3]int{{4, 4, 2}, {2, 8, 2}, {1, 4, 2}, {3, 4, 3}} {
		topo := topology.New(shape[0], shape[1], shape[2])
		opts := mhaSeedOptions(topo)
		var names []string
		for name := range opts {
			names = append(names, name)
		}
		slices.Sort(names)
		kept := map[[2]bool]bool{} // which of the two parts a plan found kept
		for _, order := range []string{"sorted", "reversed"} {
			parts := mhaParts{phase1: map[int]*prefix{}, rest: map[MHAOptions][]Step{}}
			plans, prefixes := map[string]*Schedule{}, map[string]*prefix{}
			for _, name := range names {
				o := opts[name]
				d, ro := offloadSteps(topo, prm, msg, o.Offload), o
				ro.Offload = 0
				kept[[2]bool{parts.phase1[d] != nil, parts.rest[ro] != nil}] = true
				plans[name], prefixes[name] = parts.plan(topo, prm, msg, o)
			}
			for name, s := range plans {
				if want := TwoPhaseMHA(topo, prm, msg, opts[name]); !reflect.DeepEqual(s, want) {
					t.Errorf("%v %s %s: the plan differs from TwoPhaseMHA's", topo, order, name)
				}
				if pre := prefixes[name]; !reflect.DeepEqual(pre.steps, s.Steps[:topo.PPN-1]) {
					t.Errorf("%v %s %s: the prefix is not the plan's phase 1", topo, order, name)
				}
			}
			slices.Reverse(names)
		}
		if len(kept) != 4 {
			t.Errorf("%v: the plans were built in %d of the four ways: %v", topo, len(kept), kept)
		}
	}
}
