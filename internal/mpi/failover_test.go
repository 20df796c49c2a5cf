package mpi

import (
	"strings"
	"testing"

	"mha/internal/faults"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// faultWorld builds a 2-node world with the given rails and schedule.
func faultWorld(hcas int, sched *faults.Schedule, blind bool, rec *trace.Recorder) *World {
	return New(Config{
		Topo:       topology.New(2, 1, hcas),
		Faults:     sched,
		FaultBlind: blind,
		Tracer:     rec,
	})
}

// oneSend runs a single rank-0 -> rank-1 send and returns its completion
// time.
func oneSend(t *testing.T, w *World, n int, opts ...SendOption) sim.Time {
	t.Helper()
	var end sim.Time
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			p.Send(c, 1, 0, Phantom(n), opts...)
			end = p.Now()
		} else {
			p.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func traceNames(rec *trace.Recorder) []string {
	var names []string
	for _, ev := range rec.Events() {
		names = append(names, ev.Name)
	}
	return names
}

func hasEvent(rec *trace.Recorder, substr string) bool {
	for _, ev := range rec.Events() {
		if strings.Contains(ev.Name, substr) {
			return true
		}
	}
	return false
}

func TestStripingSkipsDeadRail(t *testing.T) {
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1})
	rec := trace.New()
	w := faultWorld(2, down, false, rec)
	const n = 256 << 10
	deadEnd := oneSend(t, w, n, ViaHCA())

	// The stripe must collapse to one rail: the hca event says x1 and the
	// dead rail's engines are never touched.
	if !hasEvent(rec, "hca(x1)") {
		t.Fatalf("no single-rail hca event; trace: %v", traceNames(rec))
	}
	if !hasEvent(rec, "stripe(rail0=") {
		t.Fatalf("no stripe-layout fault event; trace: %v", traceNames(rec))
	}
	for _, s := range w.RailStats() {
		if s.Node == 0 && s.Rail == 1 && (s.TxUses != 0 || s.TxBusy != 0) {
			t.Fatalf("dead rail was used: %v", s)
		}
	}

	// Sanity: one surviving rail out of two lands between the healthy
	// 2-rail time and being no worse than a 1-rail-per-node topology.
	healthy := oneSend(t, faultWorld(2, nil, false, nil), n, ViaHCA())
	oneRail := oneSend(t, faultWorld(1, nil, false, nil), n, ViaHCA())
	if !(healthy < deadEnd && deadEnd <= oneRail) {
		t.Fatalf("degraded time %v not in (healthy %v, 1-rail %v]", deadEnd, healthy, oneRail)
	}
}

func TestViaRailFailsOverWithTraceEvent(t *testing.T) {
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1})
	rec := trace.New()
	w := faultWorld(2, down, false, rec)
	oneSend(t, w, 1024, ViaRail(1))
	if !hasEvent(rec, "failover(rail1->rail0)") {
		t.Fatalf("no failover event; trace: %v", traceNames(rec))
	}
	for _, s := range w.RailStats() {
		if s.Node == 0 && s.Rail == 1 && s.TxUses != 0 {
			t.Fatalf("pinned send used the dead rail: %v", s)
		}
	}
}

func TestFaultBlindQueuesOnDeadRail(t *testing.T) {
	const outage = 100 * sim.Time(sim.Microsecond)
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 1, Until: outage})

	blind := oneSend(t, faultWorld(2, down, true, nil), 1024, ViaRail(1))
	aware := oneSend(t, faultWorld(2, down, false, nil), 1024, ViaRail(1))
	if blind < outage {
		t.Fatalf("blind pinned send finished at %v, before the outage ends at %v", blind, outage)
	}
	if aware >= outage {
		t.Fatalf("aware pinned send stayed on the dead rail: end %v", aware)
	}
}

func TestWeightedStripeBeatsEqualSplit(t *testing.T) {
	deg := faults.MustNew(faults.Fault{Kind: faults.Degrade, Node: 0, Rail: 1, Fraction: 0.5})
	const n = 1 << 20

	rec := trace.New()
	aware := oneSend(t, faultWorld(2, deg, false, rec), n, ViaHCA())
	blind := oneSend(t, faultWorld(2, deg, true, nil), n, ViaHCA())
	if aware >= blind {
		t.Fatalf("re-weighted stripe (%v) not faster than naive equal split (%v)", aware, blind)
	}

	// The trace records the unequal piece layout: rail 0 carries twice the
	// bytes of the half-speed rail 1.
	var layout string
	for _, ev := range rec.Events() {
		if strings.HasPrefix(ev.Name, "stripe(") {
			layout = ev.Name
		}
	}
	want := "stripe(rail0=699051,rail1=349525)"
	if layout != want {
		t.Fatalf("stripe layout = %q, want %q", layout, want)
	}
}

func TestRoundRobinSkipsDownRail(t *testing.T) {
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 0})
	rec := trace.New()
	w := faultWorld(2, down, false, rec)
	err := w.Run(func(p *Proc) {
		c := w.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < 4; i++ {
				p.Send(c, 1, i, Phantom(512)) // below the striping threshold
			}
		} else {
			for i := 0; i < 4; i++ {
				p.Recv(c, 0, i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasEvent(rec, "failover(rail0->rail1)") {
		t.Fatalf("no round-robin failover event; trace: %v", traceNames(rec))
	}
	for _, s := range w.RailStats() {
		if s.Node == 0 && s.Rail == 0 && s.TxUses != 0 {
			t.Fatalf("round-robin used the dead rail: %v", s)
		}
	}
}

func TestAllRailsDownWaitsForRecovery(t *testing.T) {
	const outage = 50 * sim.Time(sim.Microsecond)
	down := faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: faults.AllRails, Until: outage})
	rec := trace.New()
	end := oneSend(t, faultWorld(2, down, false, rec), 64<<10, ViaHCA())
	if end < outage {
		t.Fatalf("send finished at %v during a total outage until %v", end, outage)
	}
	if !hasEvent(rec, "raildown") {
		t.Fatalf("no raildown event; trace: %v", traceNames(rec))
	}
}

func TestLatencyFaultAddsExtra(t *testing.T) {
	const extra = 5 * sim.Microsecond
	lat := faults.MustNew(faults.Fault{Kind: faults.Latency, Node: 0, Rail: 0, Extra: extra})
	slow := oneSend(t, faultWorld(1, lat, false, nil), 1024)
	healthy := oneSend(t, faultWorld(1, nil, false, nil), 1024)
	if got := sim.Duration(slow - healthy); got != extra {
		t.Fatalf("latency fault added %v, want %v", got, extra)
	}
}

func TestViaRailNegativePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "negative rail") {
			t.Fatalf("recover = %v, want negative-rail panic", r)
		}
	}()
	ViaRail(-1)
}

func TestNoStripeAboveThresholdUsesOneRail(t *testing.T) {
	rec := trace.New()
	w := faultWorld(2, nil, false, rec)
	oneSend(t, w, 256<<10, ViaHCA(), NoStripe()) // far above StripeThreshold
	if !hasEvent(rec, "hca(x1)") || hasEvent(rec, "hca(x2)") {
		t.Fatalf("NoStripe still striped; trace: %v", traceNames(rec))
	}
}

func TestFaultScheduleOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("World.New accepted a schedule targeting a missing rail")
		}
	}()
	faultWorld(2, faults.MustNew(faults.Fault{Kind: faults.Down, Node: 0, Rail: 7}), false, nil)
}

func TestFaultRunsDeterministic(t *testing.T) {
	sched := faults.MustNew(
		faults.Fault{Kind: faults.Flap, Node: 0, Rail: 0,
			Period: 40 * sim.Microsecond, DownFor: 10 * sim.Microsecond},
		faults.Fault{Kind: faults.Degrade, Node: 1, Rail: 1, Fraction: 0.5},
	)
	run := func() sim.Time {
		w := New(Config{
			Topo:   topology.New(2, 2, 2),
			Faults: sched,
			Seed:   7,
		})
		err := w.Run(func(p *Proc) {
			c := w.CommWorld()
			peer := (p.Rank() + p.Size()/2) % p.Size()
			got := p.SendRecv(c, peer, p.Rank(), Phantom(64<<10), peer, peer, ViaHCA())
			_ = got
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed and schedule, different end times: %v vs %v", a, b)
	}
}
