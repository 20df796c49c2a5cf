package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(12 * Microsecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestWaitUntilPastReturnsImmediately(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		p.WaitUntil(3 * Time(Microsecond)) // in the past: no-op
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("now = %v, want 10us", at)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	// All procs sleep until the same instant; wake order must follow the
	// deterministic schedule order (here: spawn order, since start events
	// and sleep events are created in spawn order).
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time100us())
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func time100us() Duration { return 100 * Microsecond }

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		e := NewEngine()
		log := ""
		c := e.NewCounter("c")
		r := e.NewResource("r")
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(i) * Microsecond)
				_, end := r.Acquire(10 * Microsecond)
				p.WaitUntil(end)
				c.Add(1)
				c.WaitGE(p, 5)
				log += fmt.Sprintf("%d@%v;", i, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := e.NewCounter("never")
	e.Spawn("stuck", func(p *Proc) {
		c.WaitGE(p, 1)
	})
	err := e.Run()
	if err == nil || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want error from panicking process")
	}
}

func TestResourceFIFOQueueing(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("rail")
	ends := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			_, end := r.Acquire(10 * Microsecond)
			p.WaitUntil(end)
			ends[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Three 10us uses of one resource serialize: 10, 20, 30us.
	for i, want := range []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)} {
		if ends[i] != want {
			t.Fatalf("ends = %v, want 10/20/30us", ends)
		}
	}
	if got := r.BusyTime(); got != 30*Microsecond {
		t.Fatalf("busy = %v, want 30us", got)
	}
	if got := r.Uses(); got != 3 {
		t.Fatalf("uses = %d, want 3", got)
	}
}

func TestAcquireTogetherWaitsForAll(t *testing.T) {
	e := NewEngine()
	a := e.NewResource("a")
	b := e.NewResource("b")
	var start, end Time
	e.Spawn("holder", func(p *Proc) {
		// Occupy b until t=50us.
		_, e2 := b.Acquire(50 * Microsecond)
		p.WaitUntil(e2)
	})
	e.Spawn("joint", func(p *Proc) {
		p.Sleep(1 * Microsecond) // make sure holder acquired first
		start, end = AcquireTogether(10*Microsecond, a, b)
		p.WaitUntil(end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != Time(50*Microsecond) || end != Time(60*Microsecond) {
		t.Fatalf("joint acquisition [%v, %v], want [50us, 60us]", start, end)
	}
	if a.FreeAt() != end || b.FreeAt() != end {
		t.Fatal("both resources should be busy until the joint end")
	}
}

func TestAcquireAfter(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r")
	e.Spawn("p", func(p *Proc) {
		start, end := r.AcquireAfter(40*Time(Microsecond), 5*Microsecond)
		if start != Time(40*Microsecond) || end != Time(45*Microsecond) {
			t.Errorf("AcquireAfter = [%v, %v], want [40us, 45us]", start, end)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounterWaitAndBroadcast(t *testing.T) {
	e := NewEngine()
	c := e.NewCounter("chunks")
	var wokenAt [4]Time
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			c.WaitGE(p, int64(i+1))
			wokenAt[i] = p.Now()
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		c.Add(2) // releases waiters 0 and 1
		p.Sleep(10 * Microsecond)
		c.Add(1) // releases waiter 2
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokenAt[0] != Time(10*Microsecond) || wokenAt[1] != Time(10*Microsecond) {
		t.Fatalf("waiters 0,1 woke at %v,%v want 10us", wokenAt[0], wokenAt[1])
	}
	if wokenAt[2] != Time(20*Microsecond) {
		t.Fatalf("waiter 2 woke at %v, want 20us", wokenAt[2])
	}
}

func TestCounterAddAt(t *testing.T) {
	e := NewEngine()
	c := e.NewCounter("c")
	var at Time
	e.Spawn("producer", func(p *Proc) {
		c.AddAt(Time(30*Microsecond), 1) // delayed add; producer keeps going
	})
	e.Spawn("consumer", func(p *Proc) {
		c.WaitGE(p, 1)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(30*Microsecond) {
		t.Fatalf("consumer woke at %v, want 30us", at)
	}
}

func TestCounterSetAtLeastNeverDecreases(t *testing.T) {
	e := NewEngine()
	c := e.NewCounter("c")
	e.Spawn("p", func(p *Proc) {
		c.SetAtLeast(5)
		c.SetAtLeast(3)
		if got := c.Value(); got != 5 {
			t.Errorf("value = %d, want 5", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxDelayedDelivery(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("inbox")
	var got interface{}
	var at Time
	e.Spawn("sender", func(p *Proc) {
		m.PutAt(Time(25*Microsecond), "hello")
	})
	e.Spawn("receiver", func(p *Proc) {
		got = m.Get(p, "greeting", func(v interface{}) bool { return true })
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" || at != Time(25*Microsecond) {
		t.Fatalf("got %v at %v, want hello at 25us", got, at)
	}
}

func TestMailboxMatchingSkipsNonMatches(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("inbox")
	var got interface{}
	e.Spawn("sender", func(p *Proc) {
		m.PutAt(0, 1)
		m.PutAt(0, 2)
		m.PutAt(0, 3)
	})
	e.Spawn("receiver", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		got = m.Get(p, "two", func(v interface{}) bool { return v.(int) == 2 })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("got %v, want 2", got)
	}
	if m.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (items 1 and 3)", m.Pending())
	}
	if m.Arrived() != 3 {
		t.Fatalf("arrived = %d, want 3", m.Arrived())
	}
}

func TestMailboxWaiterFIFO(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("inbox")
	var order []string
	any := func(interface{}) bool { return true }
	e.Spawn("r1", func(p *Proc) {
		m.Get(p, "any", any)
		order = append(order, "r1")
	})
	e.Spawn("r2", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		m.Get(p, "any", any)
		order = append(order, "r2")
	})
	e.Spawn("sender", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		m.PutAt(p.Now(), "a")
		m.PutAt(p.Now(), "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "r1" || order[1] != "r2" {
		t.Fatalf("order = %v, want [r1 r2]", order)
	}
}

func TestMailboxTryGet(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("inbox")
	e.Spawn("p", func(p *Proc) {
		if _, ok := m.TryGet(func(interface{}) bool { return true }); ok {
			t.Error("TryGet on empty mailbox should fail")
		}
		m.PutAt(p.Now(), 42)
		p.Sleep(1) // let the deposit event fire
		v, ok := m.TryGet(func(interface{}) bool { return true })
		if !ok || v != 42 {
			t.Errorf("TryGet = %v, %v; want 42, true", v, ok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGaugeConcurrency(t *testing.T) {
	e := NewEngine()
	g := e.NewGauge("copies")
	var seen []int
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			n := g.Inc()
			seen = append(seen, n)
			g.DecAt(p.Now() + Time(10*Microsecond))
			p.Sleep(20 * Microsecond)
			if got := g.Value(); got != 0 {
				t.Errorf("gauge after all decs = %d, want 0", got)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All four start at t=0 and decrement at t=10us, so Inc returns 1..4.
	for i, n := range seen {
		if n != i+1 {
			t.Fatalf("seen = %v, want [1 2 3 4]", seen)
		}
	}
	if g.Peak() != 4 {
		t.Fatalf("peak = %d, want 4", g.Peak())
	}
}

func TestTransferTime(t *testing.T) {
	// 1 MiB at 1 GiB/s is ~976.5625us plus 2us startup.
	d := TransferTime(2*Microsecond, 1<<20, float64(1<<30))
	want := 2*Microsecond + FromSeconds(float64(1<<20)/float64(1<<30))
	if d != want {
		t.Fatalf("TransferTime = %v, want %v", d, want)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn after Run should panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

func TestScheduleAndAfterCallbacks(t *testing.T) {
	e := NewEngine()
	var fired atomic.Int32
	e.Spawn("p", func(p *Proc) {
		e.After(5*Microsecond, func() { fired.Add(1) })
		e.Schedule(Time(7*Microsecond), func() { fired.Add(1) })
		p.Sleep(10 * Microsecond)
		if got := fired.Load(); got != 2 {
			t.Errorf("fired = %d, want 2", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of sleep durations, each process ends exactly at the
// sum of its sleeps, independent of the other processes.
// A negative After used to enqueue an event in the past and only blow up
// later inside Run; it must fail where the mistake is.
func TestNegativeAfterPanicsAtCallSite(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(Microsecond)
		defer func() {
			if r := recover(); r != "sim: negative After" {
				t.Errorf("recover = %v, want the negative-After panic", r)
			}
		}()
		e.After(-1, func() { t.Error("callback of a negative After ran") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Events; n != 2 {
		t.Fatalf("%d events fired, want only the start and the sleep", n)
	}
}

func TestQuickSleepIndependence(t *testing.T) {
	f := func(raw [][4]uint16) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		e := NewEngine()
		ends := make([]Time, len(raw))
		for i, durs := range raw {
			i, durs := i, durs
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				var total Time
				for _, d := range durs {
					p.Sleep(Duration(d) * Nanosecond)
					total += Time(d)
				}
				ends[i] = p.Now()
				if ends[i] != total {
					t.Errorf("proc %d ended at %v, want %v", i, ends[i], total)
				}
			})
		}
		return e.Run() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource's total busy time equals the sum of acquired
// durations, and the final FreeAt is at least that sum when all requests
// are issued at t=0.
func TestQuickResourceConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		e := NewEngine()
		r := e.NewResource("r")
		var want Duration
		for _, d := range raw {
			want += Duration(d)
		}
		e.Spawn("p", func(p *Proc) {
			for _, d := range raw {
				r.Acquire(Duration(d))
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return r.BusyTime() == want && r.FreeAt() == Time(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProcAccessorsAndYield(t *testing.T) {
	e := NewEngine()
	var order []string
	a := e.Spawn("alpha", func(p *Proc) {
		if p.ID() != 0 || p.Name() != "alpha" || p.Engine() != e {
			t.Error("proc accessors wrong")
		}
		p.Yield() // defer to beta's start event
		order = append(order, "alpha")
	})
	e.Spawn("beta", func(p *Proc) {
		order = append(order, "beta")
	})
	_ = a
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "beta" {
		t.Fatalf("yield did not defer: %v", order)
	}
}

func TestDurationConversions(t *testing.T) {
	if FromMicros(1.5) != 1500*Nanosecond {
		t.Fatal("FromMicros")
	}
	if d := FromSeconds(2); d.Seconds() != 2 {
		t.Fatal("Seconds round trip")
	}
	if Time(3*Second).Seconds() != 3 {
		t.Fatal("Time.Seconds")
	}
	if (2*Microsecond).String() == "" || Time(5).String() == "" {
		t.Fatal("String empty")
	}
}

func TestTransferTimePanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransferTime(0, 10, 0)
}

func TestResourceName(t *testing.T) {
	e := NewEngine()
	if e.NewResource("rail").Name() != "rail" {
		t.Fatal("resource name")
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Sleep(Microsecond); p.Sleep(Microsecond) })
	e.Spawn("b", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	// 2 start events + 3 sleep wakes = 5 events.
	if s.Events != 5 {
		t.Fatalf("events = %d, want 5", s.Events)
	}
	if s.Processes != 2 || s.Finished != 2 {
		t.Fatalf("procs = %d/%d", s.Finished, s.Processes)
	}
	if s.Now != Time(2*Microsecond) {
		t.Fatalf("now = %v", s.Now)
	}
	// The loop's own counters. Run's drive ends on a's start (a switch);
	// a parks and its drive starts b (switch); b parks and its drive wakes
	// a at 1us (switch); a sleeps again and wakes b, also at 1us (switch);
	// b finishes and its drive wakes a at 2us (switch); a finishes and ends
	// the run. Nobody woke itself; three times were opened, 0, 1us and 2us;
	// and never more than two events were pending: the two starts, then one
	// wake each.
	if s.Switches != 5 || s.SelfWakes != 0 || s.Times != 3 || s.PeakPending != 2 {
		t.Fatalf("switches %d, self-wakes %d, times %d, peak pending %d; want 5, 0, 3, 2",
			s.Switches, s.SelfWakes, s.Times, s.PeakPending)
	}

	// One process alone drives every event that wakes it; its Yield finds
	// the bucket of 1us drained and opens that time again.
	e = NewEngine()
	e.Spawn("solo", func(p *Proc) { p.Sleep(Microsecond); p.Yield(); p.Sleep(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s = e.Stats()
	if s.Events != 4 || s.Switches != 1 || s.SelfWakes != 3 || s.Times != 4 || s.PeakPending != 1 {
		t.Fatalf("solo: %+v; want 4 events, 1 switch, 3 self-wakes, 4 times, peak 1", s)
	}
}
