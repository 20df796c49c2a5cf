package sched

import (
	"fmt"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

// TestSynthesizeBeatsLowerings is the acceptance check for the
// synthesizer: on multi-node multi-rail machines at a large message
// size, the emitted schedule is valid and its simulated makespan is no
// worse than the best hand-written lowering's (ties allowed).
func TestSynthesizeBeatsLowerings(t *testing.T) {
	prm := netmodel.Thor()
	const msg = 256 << 10
	for _, topo := range []topology.Cluster{
		topology.New(2, 2, 2),
		topology.New(4, 2, 2),
	} {
		res, err := Synthesize(topo, prm, msg, SynthOptions{})
		if err != nil {
			t.Fatalf("synthesize on %v: %v", topo, err)
		}
		if err := res.Measure(topo, prm, nil); err != nil {
			t.Fatal(err)
		}
		if len(res.Lowered) == 0 {
			t.Fatalf("no lowered baselines on %v", topo)
		}
		if _, err := Analyze(res.Best.Sched, prm); err != nil {
			t.Errorf("emitted schedule %s invalid: %v", res.Best.Name, err)
		}
		bestHand := res.Lowered[0]
		for _, c := range res.Lowered[1:] {
			if c.Makespan < bestHand.Makespan {
				bestHand = c
			}
		}
		if bestHand.Makespan <= 0 {
			t.Fatalf("lowered baseline %s not measured", bestHand.Name)
		}
		if res.Best.Makespan > bestHand.Makespan {
			t.Errorf("on %v: synthesized %s makespan %v worse than hand-written %s %v",
				topo, res.Best.Name, res.Best.Makespan, bestHand.Name, bestHand.Makespan)
		}
		t.Logf("%v: best %s cost=%v makespan=%v (best hand-written %s makespan=%v)",
			topo, res.Best.Name, res.Best.Cost, res.Best.Makespan, bestHand.Name, bestHand.Makespan)
	}
}

// TestAnalyzerSimAgreement checks model fidelity where it matters for
// dispatch: over the lowered designs, the analyzer's cheapest variant
// is also the simulator's fastest, at two machine scales.
func TestAnalyzerSimAgreement(t *testing.T) {
	prm := netmodel.Thor()
	const msg = 256 << 10
	for _, topo := range []topology.Cluster{
		topology.New(2, 2, 2),
		topology.New(4, 2, 2),
	} {
		res, err := Synthesize(topo, prm, msg, SynthOptions{})
		if err != nil {
			t.Fatalf("synthesize on %v: %v", topo, err)
		}
		if err := res.Measure(topo, prm, nil); err != nil {
			t.Fatal(err)
		}
		byCost, bySim := res.Lowered[0], res.Lowered[0]
		for _, c := range res.Lowered[1:] {
			if c.Cost < byCost.Cost {
				byCost = c
			}
			if c.Makespan < bySim.Makespan {
				bySim = c
			}
		}
		if byCost.Name != bySim.Name {
			t.Errorf("on %v: analyzer prefers %s (%v) but simulator prefers %s (%v)",
				topo, byCost.Name, byCost.Cost, bySim.Name, bySim.Makespan)
		}
		for _, c := range res.Lowered {
			t.Logf("%v %-10s cost=%8v makespan=%8v", topo, c.Name, c.Cost, c.Makespan)
		}
	}
}

// TestSynthesizePicksAFusion pins the key where fusion earns its code:
// on 16x4x3 at 256 KiB no seed wins; the pick fuses two steps of the
// RD-phase-2 MHA lowering twice over and beats the best seed by 22 µs.
func TestSynthesizePicksAFusion(t *testing.T) {
	res, err := Synthesize(topology.New(16, 4, 3), netmodel.Thor(), 256<<10, SynthOptions{PruneMargin: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("best=%s cost=%d makespan=%d; best seed %s=%d",
		res.Best.Name, int64(res.Best.Cost), int64(res.Best.Makespan), res.Seeds[0].Name, int64(res.Seeds[0].Cost))
	const want = "best=mha-rd+f1+f0 cost=1399580 makespan=1399580; best seed mha-rd-d0=1422025"
	if got != want {
		t.Errorf("16x4x3/256KiB:\n got %s\nwant %s", got, want)
	}
}
