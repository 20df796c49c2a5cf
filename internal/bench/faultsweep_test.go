package bench

import (
	"io"
	"testing"

	"mha/internal/faults"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// TestOneRailDownLandsBetweenHealthyAndSingleRail is the acceptance
// criterion for graceful degradation: with one of the two rails down for
// the opening stretch of the run, the MHA allgather must pay for the
// outage (strictly slower than the healthy two-rail machine) but recover
// the moment the rail returns (strictly faster than a machine that never
// had the second rail).
func TestOneRailDownLandsBetweenHealthyAndSingleRail(t *testing.T) {
	topo := topology.New(4, 4, 2)
	oneRail := topology.New(4, 4, 1)
	prm := netmodel.Thor()
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1,
		Until: 40 * sim.Time(sim.Microsecond)})

	for _, m := range []int{64 << 10, 256 << 10} {
		healthy, _ := FaultedLatency(topo, prm, m, row("mha"), nil, false)
		degraded, _ := FaultedLatency(topo, prm, m, row("mha"), down, false)
		single, _ := FaultedLatency(oneRail, prm, m, row("mha"), nil, false)
		if !(healthy < degraded && degraded < single) {
			t.Errorf("m=%d: want healthy (%v) < one-rail-down (%v) < single-rail machine (%v)",
				m, healthy, degraded, single)
		}
	}
}

// TestPermanentRailDownNeverBeatsSingleRailMachine pins the limiting
// case: a rail that is down for the entire run degrades node 0 to the
// single-rail machine's speed — and with the plan-level integration, not
// below it.
func TestPermanentRailDownNeverBeatsSingleRailMachine(t *testing.T) {
	topo := topology.New(4, 4, 2)
	oneRail := topology.New(4, 4, 1)
	prm := netmodel.Thor()
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1})

	for _, m := range []int{64 << 10, 256 << 10} {
		healthy, _ := FaultedLatency(topo, prm, m, row("mha"), nil, false)
		degraded, _ := FaultedLatency(topo, prm, m, row("mha"), down, false)
		single, _ := FaultedLatency(oneRail, prm, m, row("mha"), nil, false)
		if !(healthy < degraded && degraded <= single) {
			t.Errorf("m=%d: want healthy (%v) < permanent-down (%v) <= single-rail machine (%v)",
				m, healthy, degraded, single)
		}
	}
}

// TestAwareStripingBeatsNaiveOnDegradedRail is the second acceptance
// criterion: on a 50%-degraded rail, re-weighted striping must beat the
// naive equal split for large messages.
func TestAwareStripingBeatsNaiveOnDegradedRail(t *testing.T) {
	topo := topology.New(4, 4, 2)
	prm := netmodel.Thor()
	degraded := faults.MustNew(faults.Fault{
		Kind: faults.Degrade, Node: faults.AllNodes, Rail: 1, Fraction: 0.5})

	for _, m := range []int{128 << 10, 512 << 10} {
		aware, _ := FaultedLatency(topo, prm, m, row("mha"), degraded, false)
		naive, _ := FaultedLatency(topo, prm, m, row("mha"), degraded, true)
		if aware >= naive {
			t.Errorf("m=%d: aware striping (%v) not faster than naive equal split (%v)",
				m, aware, naive)
		}
	}
}

func TestFaultedLatencyDeterministic(t *testing.T) {
	topo := topology.New(4, 2, 2)
	sched := faults.Random(7, 4, 2, 5_000_000)
	a, _ := FaultedLatency(topo, netmodel.Thor(), 64<<10, row("mha"), sched, false)
	b, _ := FaultedLatency(topo, netmodel.Thor(), 64<<10, row("mha"), sched, false)
	if a != b {
		t.Fatalf("same schedule, different latencies: %v vs %v", a, b)
	}
}

func TestRailStatsReflectDeadRail(t *testing.T) {
	topo := topology.New(2, 2, 2)
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1})
	_, stats := FaultedLatency(topo, netmodel.Thor(), 128<<10, row("mha"), down, false)
	var usedAny bool
	for _, s := range stats {
		if s.Node == 0 && s.Rail == 1 && s.TxUses != 0 {
			t.Errorf("dead rail transmitted: %v", s)
		}
		if s.TxUses > 0 {
			usedAny = true
		}
	}
	if !usedAny {
		t.Fatal("no rail recorded any use")
	}
}

func TestFaultSweepExperimentRuns(t *testing.T) {
	e, ok := ByID("ext-faults")
	if !ok {
		t.Fatal("ext-faults experiment not registered")
	}
	if err := e.Run(io.Discard, Quick); err != nil {
		t.Fatal(err)
	}
}
