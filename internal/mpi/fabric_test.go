package mpi

import (
	"testing"

	"mha/internal/fabric"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// twoLevel returns a two-level fat tree with the given leaf size and
// taper.
func twoLevel(nodesPerLeaf int, taper float64) *fabric.Spec {
	s := fabric.TwoLevel(nodesPerLeaf, taper)
	return &s
}

// crossTraffic measures N simultaneous single-rank pairs all crossing
// between two leaves of the given fabric (nil is flat).
func crossTraffic(t *testing.T, spec *fabric.Spec, pairs, m int) sim.Time {
	t.Helper()
	// Nodes 0..pairs-1 on leaf 0, nodes pairs..2*pairs-1 on leaf 1.
	w := New(Config{Topo: topology.New(2*pairs, 1, 2), Params: netmodel.Thor(), Phantom: true, Fabric: spec})
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() < pairs {
			p.Send(c, p.Rank()+pairs, 0, Phantom(m))
		} else {
			p.Recv(c, p.Rank()-pairs, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Makespan()
}

func TestNonBlockingFabricUnchanged(t *testing.T) {
	// A nil fabric is the direct model.
	direct := crossTraffic(t, nil, 4, 1<<20)
	tree := crossTraffic(t, twoLevel(4, 1), 4, 1<<20)
	// Full bisection: uplink aggregate equals the nodes' injection rate,
	// so four concurrent pairs serialize through it exactly as they fill
	// it — identical completion.
	if tree != direct {
		t.Fatalf("full-bisection tree (%v) differs from direct fabric (%v)", tree, direct)
	}
}

func TestTaperThrottlesCrossLeafTraffic(t *testing.T) {
	full := crossTraffic(t, twoLevel(4, 1), 4, 1<<20)
	tapered := crossTraffic(t, twoLevel(4, 2), 4, 1<<20)
	ratio := float64(tapered) / float64(full)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2:1 taper ratio = %.2f (full %v, tapered %v), want ~2",
			ratio, full, tapered)
	}
}

func TestSameLeafTrafficUnaffectedByTaper(t *testing.T) {
	// Two nodes under one leaf: the uplink is never touched.
	prm := netmodel.Thor()
	w := New(Config{Topo: topology.New(2, 1, 2), Params: prm, Phantom: true,
		Fabric: twoLevel(4, 4)}) // brutal taper
	var arrived sim.Time
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			p.Send(c, 1, 0, Phantom(1<<20))
		} else {
			p.Recv(c, 0, 0)
			arrived = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := prm.HCATime(1<<20, 2)
	if arrived != sim.Time(want) {
		t.Fatalf("same-leaf latency %v, want endpoint-only %v", arrived, want)
	}
}
