package compose_test

import (
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
// non-power-of-two counts and ppn = 1 included. No simulation: what the
// analyzer cannot see (timing, faults, teardown) is the randomized
// campaign's job.
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
			analyses++
		}
	}
	t.Logf("%d analyses, all clean", analyses)
}
