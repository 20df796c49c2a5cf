package sim

import (
	"fmt"
	"strings"
	"testing"
)

// constRate returns a profile that serves at frac forever.
func constRate(frac float64) RateFunc {
	return func(t Time) (float64, Time) { return frac, TimeMax }
}

func TestRateNilMatchesFullSpeed(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r")
	var end Time
	e.Spawn("p", func(p *Proc) {
		_, end = r.Acquire(10 * Microsecond)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(10*Microsecond) {
		t.Fatalf("end = %v, want exactly 10us (healthy path must be exact)", end)
	}
}

func TestRateHalfSpeedDoublesService(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r")
	r.SetRate(constRate(0.5))
	var end Time
	e.Spawn("p", func(p *Proc) {
		_, end = r.Acquire(10 * Microsecond)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(20*Microsecond) {
		t.Fatalf("end = %v, want 20us at half rate", end)
	}
}

func TestRateOutagePausesService(t *testing.T) {
	// Full speed until 5us, down [5us, 25us), full speed after: a 10us job
	// starting at 0 does 5us of work, pauses 20us, finishes at 30us.
	profile := func(t Time) (float64, Time) {
		switch {
		case t < Time(5*Microsecond):
			return 1, Time(5 * Microsecond)
		case t < Time(25*Microsecond):
			return 0, Time(25 * Microsecond)
		default:
			return 1, TimeMax
		}
	}
	e := NewEngine()
	r := e.NewResource("r")
	r.SetRate(profile)
	var end Time
	e.Spawn("p", func(p *Proc) {
		_, end = r.Acquire(10 * Microsecond)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(30*Microsecond) {
		t.Fatalf("end = %v, want 30us (5 work + 20 outage + 5 work)", end)
	}
	if got := r.BusyTime(); got != 30*Microsecond {
		t.Fatalf("busy = %v, want 30us (occupation spans the outage)", got)
	}
}

func TestRateAcquireDuringOutageWaits(t *testing.T) {
	// Down [0, 8us): a job posted at 0 cannot start serving until 8us.
	profile := func(t Time) (float64, Time) {
		if t < Time(8*Microsecond) {
			return 0, Time(8 * Microsecond)
		}
		return 1, TimeMax
	}
	e := NewEngine()
	r := e.NewResource("r")
	r.SetRate(profile)
	var end Time
	e.Spawn("p", func(p *Proc) {
		_, end = r.Acquire(2 * Microsecond)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(10*Microsecond) {
		t.Fatalf("end = %v, want 10us", end)
	}
}

func TestRatePermanentOutagePanics(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("deadrail")
	r.SetRate(constRate(0))
	e.Spawn("p", func(p *Proc) {
		r.Acquire(Microsecond)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "permanently unavailable") {
		t.Fatalf("err = %v, want permanently-unavailable panic", err)
	}
}

func TestRateStalledWindowPanics(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r")
	r.SetRate(func(t Time) (float64, Time) { return 0.5, t }) // never advances
	e.Spawn("p", func(p *Proc) {
		r.Acquire(Microsecond)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "does not advance") {
		t.Fatalf("err = %v, want stalled-window panic", err)
	}
}

func TestRateAcquireTogetherSlowestEndpointWins(t *testing.T) {
	// tx healthy, rx at half speed: delivery waits for the slow endpoint,
	// and both stay held until the common end.
	e := NewEngine()
	tx := e.NewResource("tx")
	rx := e.NewResource("rx")
	rx.SetRate(constRate(0.5))
	var end Time
	e.Spawn("p", func(p *Proc) {
		_, end = AcquireTogether(10*Microsecond, tx, rx)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(20*Microsecond) {
		t.Fatalf("end = %v, want 20us (rx at half rate)", end)
	}
	if tx.FreeAt() != end || rx.FreeAt() != end {
		t.Fatalf("endpoints released at %v/%v, want both held until %v", tx.FreeAt(), rx.FreeAt(), end)
	}
}

func TestGaugeNegativePanics(t *testing.T) {
	e := NewEngine()
	g := e.NewGauge("g")
	e.Spawn("p", func(p *Proc) {
		g.DecAt(p.Now()) // decrement without a matching Inc
		p.Sleep(Microsecond)
	})
	// The decrement fires inside the event loop, not in the process body,
	// so the panic surfaces from Run rather than as a process failure.
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "went negative") {
			t.Fatalf("recover = %v, want gauge-went-negative panic", r)
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned without panicking")
}
