package sched

import (
	"fmt"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/perfmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// TestClosedFormTracksAnalyzer makes the paper's closed forms a test
// oracle for the analyzer. On two-rail block clusters from 2x2 to 16x8
// nodes x ppn, at 1 KiB to 1 MiB, perfmodel's pipeline refinements of
// Eq. 7 (ring) and Eq. 6 (recursive doubling) must stay within a band of
// Analyze's cost for the TwoPhaseMHA plan with the same phase 2 and the
// Eq. 1 offload. Every plan on the grid simulates at exactly its cost,
// which the test checks too, so the bands also say how far Eq. 6/7 sit
// from the runtime. Each band is what the model achieves today, rounded
// outward to three places; its ends are the worst points:
//   - ring: 0.5348 (16x8x2 at 1 MiB) to 1.2414 (8x16x2 at 1 KiB);
//   - rd: 0.7496 (2x8x2 at 256 KiB) to 0.9733 (8x4x2 at 1 KiB).
func TestClosedFormTracksAnalyzer(t *testing.T) {
	prm := netmodel.Thor()
	variants := []struct {
		name   string
		phase2 Phase2Alg
		model  func(perfmodel.Model, int) sim.Duration
		lo, hi float64
	}{
		{"ring", Phase2Ring, perfmodel.Model.MHAInterRing, 0.534, 1.242},
		{"rd", Phase2RD, perfmodel.Model.MHAInterRD, 0.749, 0.974},
	}
	shapes := [][2]int{{2, 2}, {2, 8}, {4, 4}, {4, 8}, {8, 4}, {8, 8}, {8, 16}, {16, 8}, {4, 16}}
	sizes := []int{1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	for _, v := range variants {
		for _, sh := range shapes {
			topo := topology.New(sh[0], sh[1], 2)
			m := perfmodel.New(prm, topo)
			for _, msg := range sizes {
				at := fmt.Sprintf("%s %dx%dx2/%d", v.name, sh[0], sh[1], msg)
				s := TwoPhaseMHA(topo, prm, msg, MHAOptions{Phase2: v.phase2, Offload: AutoOffload})
				rep, err := Analyze(s, prm)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				mk, err := Simulate(topo, prm, s)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if mk != rep.Cost {
					t.Errorf("%s: simulated %v, analyzer cost %v", at, mk, rep.Cost)
				}
				if r := float64(v.model(m, msg)) / float64(rep.Cost); r < v.lo || r > v.hi {
					t.Errorf("%s: model/analyzer %.4f outside [%.3f, %.3f]", at, r, v.lo, v.hi)
				}
			}
		}
	}
}
