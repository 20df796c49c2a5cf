package sched

import (
	"reflect"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

func TestValidHealth(t *testing.T) {
	cases := []struct {
		h    []float64
		hcas int
		ok   bool
	}{
		{nil, 2, true},
		{[]float64{1, 1}, 2, true},
		{[]float64{0, 0.5}, 2, true},
		{[]float64{1}, 2, false},      // wrong length
		{[]float64{0, 0}, 2, false},   // every rail down
		{[]float64{1.5, 1}, 2, false}, // out of range
		{[]float64{-0.1, 1}, 2, false},
	}
	for _, c := range cases {
		err := ValidHealth(c.h, c.hcas)
		if (err == nil) != c.ok {
			t.Errorf("ValidHealth(%v, %d) = %v, want ok=%v", c.h, c.hcas, err, c.ok)
		}
	}
}

func TestApplyHealthReroutesDeadRailPins(t *testing.T) {
	topo := topology.New(2, 2, 2)
	prm := netmodel.Thor()
	s := TwoPhaseMHA(topo, prm, 64<<10, MHAOptions{Offload: AutoOffload})
	health := []float64{1, 0} // rail 1 down

	// The MHA lowering stripes across both rails, so repair must fire.
	rep := ApplyHealth(s, health)
	if rep == s {
		t.Fatalf("ApplyHealth returned the original schedule despite dead-rail pins")
	}
	for si, st := range rep.Steps {
		for xi, x := range st.Xfers {
			if x.Via == ViaRail && x.Rail == 1 {
				t.Fatalf("step %d xfer %d still pinned to dead rail 1", si, xi)
			}
		}
	}
	// The repaired schedule passes the health-aware invariants...
	if _, err := AnalyzeHealth(rep, prm, health); err != nil {
		t.Fatalf("repaired schedule rejected: %v", err)
	}
	// ...while the unrepaired one is rejected for pinning a down rail.
	if _, err := AnalyzeHealth(s, prm, health); err == nil {
		t.Fatalf("AnalyzeHealth accepted a schedule pinned to a down rail")
	}
	// Healthy vectors are a no-op.
	if got := ApplyHealth(s, []float64{1, 1}); got != s {
		t.Fatalf("ApplyHealth rewrote a schedule under a healthy vector")
	}
}

func TestAnalyzeHealthPricesDegradedRails(t *testing.T) {
	topo := topology.New(2, 2, 2)
	prm := netmodel.Thor()
	s := TwoPhaseMHA(topo, prm, 256<<10, MHAOptions{Offload: AutoOffload})

	healthy, err := AnalyzeHealth(s, prm, nil)
	if err != nil {
		t.Fatalf("healthy analysis: %v", err)
	}
	base, err := Analyze(s, prm)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if healthy.Cost != base.Cost {
		t.Fatalf("nil-health analysis drifted: %v != %v", healthy.Cost, base.Cost)
	}
	degraded, err := AnalyzeHealth(s, prm, []float64{1, 0.25})
	if err != nil {
		t.Fatalf("degraded analysis: %v", err)
	}
	if degraded.Cost <= healthy.Cost {
		t.Fatalf("degraded rail did not raise the predicted cost: %v <= %v", degraded.Cost, healthy.Cost)
	}
}

func TestSimulateHealthMatchesSimulateWhenHealthy(t *testing.T) {
	topo := topology.New(2, 2, 2)
	prm := netmodel.Thor()
	s := Ring(topo, 4<<10)
	plain, err := Simulate(topo, prm, s)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	viaHealth, err := SimulateHealth(topo, prm, s, []float64{1, 1})
	if err != nil {
		t.Fatalf("SimulateHealth: %v", err)
	}
	if plain != viaHealth {
		t.Fatalf("healthy SimulateHealth %v != Simulate %v", viaHealth, plain)
	}
	degraded, err := SimulateHealth(topo, prm, s, []float64{1, 0.5})
	if err != nil {
		t.Fatalf("degraded SimulateHealth: %v", err)
	}
	if degraded < plain {
		t.Fatalf("degraded run faster than healthy: %v < %v", degraded, plain)
	}
}

func TestSynthesizeUnderRailOutage(t *testing.T) {
	topo := topology.New(2, 4, 2)
	prm := netmodel.Thor()
	health := []float64{1, 0}
	res, err := Synthesize(topo, prm, 64<<10, SynthOptions{Health: health})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for si, st := range res.Best.Sched.Steps {
		for xi, x := range st.Xfers {
			if x.Via == ViaRail && x.Rail == 1 {
				t.Fatalf("best schedule step %d xfer %d pinned to the dead rail", si, xi)
			}
		}
	}
	if _, err := AnalyzeHealth(res.Best.Sched, prm, health); err != nil {
		t.Fatalf("best schedule fails health-aware invariants: %v", err)
	}
	if res.Best.Makespan == 0 {
		t.Fatalf("measured synthesis left Makespan unset")
	}

	// Same inputs, same pick: the daemon's cache-consistency contract.
	again, err := Synthesize(topo, prm, 64<<10, SynthOptions{Health: health})
	if err != nil {
		t.Fatalf("second Synthesize: %v", err)
	}
	if again.Best.Name != res.Best.Name ||
		!reflect.DeepEqual(again.Best.Sched.Steps, res.Best.Sched.Steps) {
		t.Fatalf("synthesis is not deterministic: %s vs %s", again.Best.Name, res.Best.Name)
	}
}

// TestSynthesizePruneMarginSkipsSimulation takes both branches of the
// tuner's margin on two keys of synthGolden. On 2x8x2 at 1 MiB with rail
// 1 at half rate, ring (1 360 345 ns) undercuts every other finalist by
// more than 25 %, so nothing is simulated. Healthy at 64 KiB, ring
// (93 736 ns) and the MHA lowerings (113 680 ns) sit within 25 %, so the
// pick is measured.
func TestSynthesizePruneMarginSkipsSimulation(t *testing.T) {
	topo := topology.New(2, 8, 2)
	for _, tc := range []struct {
		msg    int
		health []float64
		pruned bool
	}{
		{1 << 20, []float64{1, 0.5}, true},
		{64 << 10, nil, false},
	} {
		res, err := Synthesize(topo, netmodel.Thor(), tc.msg, SynthOptions{PruneMargin: 0.25, Health: tc.health})
		if err != nil {
			t.Fatalf("health %v: %v", tc.health, err)
		}
		switch {
		case res.Pruned != tc.pruned:
			t.Errorf("health %v: pruned=%v, want %v", tc.health, res.Pruned, tc.pruned)
		case res.Best.Sched == nil:
			t.Errorf("health %v: no schedule emitted", tc.health)
		case tc.pruned && (res.Best.Makespan != 0 || res.Search.Simulated != 0):
			t.Errorf("health %v: pruned, but simulated %d finalists (best makespan %v)", tc.health, res.Search.Simulated, res.Best.Makespan)
		case !tc.pruned && (res.Best.Makespan == 0 || res.Search.Simulated == 0):
			t.Errorf("health %v: not pruned, but the winner %s is unmeasured", tc.health, res.Best.Name)
		}
	}
}

// TestHCAPieceIsTheRuntimesOccupation: the analyzer prices a rail piece
// at exactly what the runtime charges for it. mpi.sendHCA's healthy
// occupation, acquired on a sim.Resource under the steady rate profile
// HealthFaults installs, must end hcaPiece's nanoseconds after it starts,
// at every health from 1/64 to 1 in steps of 1/64, for pieces whole and
// striped on both sides of the rendezvous threshold.
func TestHCAPieceIsTheRuntimesOccupation(t *testing.T) {
	prm := netmodel.Thor()
	thr := prm.RendezvousThreshold
	sizes := [][2]int{{1, 1}, {4 << 10, 4 << 10}, {thr - 1, thr - 1}, {thr - 1, thr / 2}, {thr, thr}, {thr, thr / 2},
		{64 << 10, 21846}, {1 << 20, 1 << 20}, {1 << 20, 1 << 19}, {64 << 20, 16 << 20}}
	for k := 1; k <= 64; k++ {
		h := float64(k) / 64
		fs, err := HealthFaults([]float64{h})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		for _, sz := range sizes {
			total, piece := sz[0], sz[1]
			rail := eng.NewResource("rail")
			rail.SetRate(func(at sim.Time) (float64, sim.Time) { return fs.RailState(0, 0, at) })
			rendezvous := sim.Duration(0)
			if total >= thr {
				rendezvous = prm.AlphaRendezvous
			}
			start, end := rail.Acquire(prm.AlphaHCA + rendezvous + sim.FromSeconds(float64(piece)/prm.BWHCA))
			if got, want := hcaPiece(prm, total, piece, h), sim.Duration(end-start); got != want {
				t.Errorf("health %d/64, piece %d of %d: hcaPiece %d ns, the rail charges %d ns", k, piece, total, int64(got), int64(want))
			}
		}
	}
}
