package sched

import (
	"fmt"
	"slices"
	"testing"

	"mha/internal/netmodel"
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
// degraded keys of the tuner's pinned decisions, cyclic layouts, and a
// sweep of 1-8 nodes by 1-8 ppn from 1 KiB to 1 MiB.
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
	for _, shape := range [][2]int{{2, 4}, {4, 2}, {4, 4}} {
		for _, msg := range []int{4 << 10, 1 << 20} {
			topo := topology.New(shape[0], shape[1], 2)
			topo.Layout = topology.Cyclic
			ks = append(ks, boundKey{topo, msg, nil})
		}
	}
	for nodes := 1; nodes <= 8; nodes++ {
		for ppn := 1; ppn <= 8; ppn++ {
			for _, msg := range []int{1 << 10, 32 << 10, 1 << 20} {
				ks = append(ks, boundKey{topology.New(nodes, ppn, 2), msg, nil})
			}
		}
	}
	return ks
}

// TestBoundedFinalistsNeverBeatTheirCost is the gate the final pick's
// branch and bound stands on: every seed and every finalist Synthesize
// marks bounded simulates no faster than the analyzer prices it, on
// every key of boundGrid. It logs the tightest point by name. Marking
// any other construction bounded fails it: rd, direct-rail, the ring on
// a cyclic layout, each sequential and each offload-tail grid seed all
// simulate below their cost somewhere on the grid.
func TestBoundedFinalistsNeverBeatTheirCost(t *testing.T) {
	prm := netmodel.Thor()
	tightest, where := 0.0, ""
	checked, exact := 0, 0
	for _, k := range boundGrid() {
		sr := &search{prm: prm, health: k.health}
		res, finalists := sr.finalists(k.topo, k.msg)
		// Many bounded seeds are one schedule under several names (the
		// option grid collapses onto the AutoOffload plans): once each.
		var seen []*Schedule
		for _, c := range slices.Concat(res.Seeds, finalists) {
			if !c.bounded || slices.ContainsFunc(seen, func(s *Schedule) bool { return sameSteps(s, c.Sched) }) {
				continue
			}
			seen = append(seen, c.Sched)
			mk, err := SimulateHealth(k.topo, prm, c.Sched, k.health)
			if err != nil {
				t.Fatalf("%v %s: %v", k, c.Name, err)
			}
			checked++
			if mk == c.Cost {
				exact++
			}
			if mk < c.Cost {
				t.Errorf("%v: bounded %s simulates in %d ns, below its cost %d ns", k, c.Name, int64(mk), int64(c.Cost))
			}
			if r := float64(mk) / float64(c.Cost); where == "" || r < tightest {
				tightest, where = r, fmt.Sprintf("%v %s (cost %d ns, makespan %d ns)", k, c.Name, int64(c.Cost), int64(mk))
			}
		}
	}
	t.Logf("%d bounded schedules, %d simulated at exactly their cost; tightest simulated/analyzed %.4f at %s", checked, exact, tightest, where)
}
