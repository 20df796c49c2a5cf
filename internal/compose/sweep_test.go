package compose_test

import (
	"slices"
	"testing"

	"mha/internal/compose"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
)

// sweepMaxRanks bounds TestAnalyzeEveryVariantEverySmallShape. At 32 the
// sweep is 476 shapes and 6 700 analyses in under a second; at 64 ranks
// with a third HCA count and a second size it is 46 668 analyses and
// half a minute, equally clean, which is not worth a tier-1 slot.
const sweepMaxRanks = 32

// TestAnalyzeEveryVariantEverySmallShape puts every schedule-backed
// variant — the sched constructors and all compose.Variants() — through
// the analyzer's completeness / hold-progression / rail-conflict proof
// on every machine shape of at most sweepMaxRanks ranks, both layouts,
// non-power-of-two counts and ppn = 1 included, and requires its JSON
// form to parse back to the same transfers and copies in the same
// order. No simulation: what the analyzer cannot see (timing, faults,
// teardown) is the randomized campaign's job.
func TestAnalyzeEveryVariantEverySmallShape(t *testing.T) {
	const msg = 64 << 10
	prm := netmodel.Thor()
	variants := compose.Variants()
	analyses := 0
	for _, topo := range smallShapes(sweepMaxRanks, topology.Block, topology.Cyclic) {
		blockOK := topo.Nodes == 1 || topo.Layout == topology.Block
		check := func(s *sched.Schedule) {
			t.Helper()
			if _, err := sched.Analyze(s, prm); err != nil {
				t.Fatalf("%s on %v: %v", s.Name, topo, err)
			}
			checkJSON(t, s)
			analyses++
		}
		check(sched.Ring(topo, msg))
		check(sched.RecursiveDoubling(topo, msg))
		if s := sched.DirectRail(topo, msg); s != nil {
			check(s)
		}
		if blockOK {
			for _, p2 := range []sched.Phase2Alg{sched.Phase2Ring, sched.Phase2RD} {
				check(sched.TwoPhaseMHA(topo, prm, msg, sched.MHAOptions{Phase2: p2, Offload: sched.AutoOffload}))
			}
		}
		for _, v := range variants {
			if v.BlockOnly && !blockOK {
				continue
			}
			plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, prm)
			if err != nil {
				t.Fatalf("%s on %v: lower: %v", v.Name, topo, err)
			}
			if _, err := plan.Analyze(prm, nil); err != nil {
				t.Fatalf("%s on %v: %v", v.Name, topo, err)
			}
			checkJSON(t, plan.Sched)
			analyses++
		}
	}
	t.Logf("%d analyses, all clean", analyses)
}

// checkJSON requires Parse(s.JSON()) to give s's block space and every
// transfer and copy of every step, in order.
func checkJSON(t *testing.T, s *sched.Schedule) {
	t.Helper()
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.Parse(string(js))
	if err != nil {
		t.Fatalf("%s on %v: JSON does not parse: %v", s.Name, s.Topo, err)
	}
	same := func(a, b sched.Step) bool { return slices.Equal(a.Xfers, b.Xfers) && slices.Equal(a.Copies, b.Copies) }
	if s2.Msg != s.Msg || s2.Blocks() != s.Blocks() || !slices.EqualFunc(s2.Steps, s.Steps, same) {
		t.Fatalf("%s on %v: JSON round trip changed the schedule:\nwant:\n%s\ngot:\n%s", s.Name, s.Topo, s, s2)
	}
}
