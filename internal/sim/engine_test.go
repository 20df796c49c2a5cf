package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestDeadlockReportText pins the report Run returns on deadlock, byte for
// byte, for every way a process can block forever, plus the state text of
// the kinds a report never lists (a report is only built once every start
// event has fired, and it skips finished processes).
func TestDeadlockReportText(t *testing.T) {
	any := func(interface{}) bool { return true }
	cases := []struct {
		name  string
		build func(e *Engine)
		want  string
	}{
		{
			name: "mailbox get",
			build: func(e *Engine) {
				m := e.NewMailbox("inbox")
				e.Spawn("rx", func(p *Proc) {
					p.Sleep(3 * Microsecond)
					m.Get(p, "token 7", any)
				})
			},
			want: "sim: deadlock at t=3.000us: 1 of 1 processes blocked forever:\n" +
				"  rx: receiving token 7 from mailbox inbox\n",
		},
		{
			name: "mailbox get by value",
			build: func(e *Engine) {
				m := e.NewMailbox("inbox")
				var describes int
				by := triples(&describes)
				e.Spawn("rx", func(p *Proc) {
					m.PutAt(p.Now(), triple{2, 4, 7})
					p.Sleep(3 * Microsecond)
					m.GetMatch(p, by, 2, -1, 8)
				})
			},
			want: "sim: deadlock at t=3.000us: 1 of 1 processes blocked forever:\n" +
				"  rx: receiving triple(2,-1,8) from mailbox inbox\n",
		},
		{
			name: "counter wait",
			build: func(e *Engine) {
				c := e.NewCounter("chunks")
				e.Spawn("lead", func(p *Proc) { c.Add(2) })
				e.Spawn("copy", func(p *Proc) { c.WaitGE(p, 5) })
			},
			want: "sim: deadlock at t=0.000us: 1 of 2 processes blocked forever:\n" +
				"  copy: waiting for counter chunks >= 5 (now 2)\n",
		},
		{
			name: "several blocked, listed by spawn order",
			build: func(e *Engine) {
				c := e.NewCounter("c")
				m := e.NewMailbox("m")
				e.Spawn("b", func(p *Proc) { p.Sleep(1500); m.Get(p, "x", any) })
				e.Spawn("done", func(p *Proc) {})
				e.Spawn("a", func(p *Proc) { c.WaitGE(p, -1); c.WaitGE(p, 1) })
			},
			want: "sim: deadlock at t=1.500us: 2 of 3 processes blocked forever:\n" +
				"  b: receiving x from mailbox m\n" +
				"  a: waiting for counter c >= 1 (now 0)\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.build(e)
			err := e.Run()
			if err == nil {
				t.Fatal("Run returned nil, want a deadlock")
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("report =\n%q\nwant\n%q", got, tc.want)
			}
		})
	}

	// The timed kinds always have a pending wake event, so a report never
	// shows them; sample the state text from an event callback while the
	// process is parked.
	e := NewEngine()
	var procs []*Proc
	procs = append(procs, e.Spawn("until", func(p *Proc) { p.WaitUntil(Time(2500)) }))
	procs = append(procs, e.Spawn("sleep", func(p *Proc) { p.Sleep(1250 * Nanosecond) }))
	procs = append(procs, e.Spawn("yield", func(p *Proc) { p.Sleep(1); p.Yield() }))
	procs = append(procs, e.Spawn("quick", func(p *Proc) {}))
	late := e.Spawn("late", func(p *Proc) {})
	if got := late.state.String(); got != "not started" {
		t.Errorf("before Run: state = %q, want %q", got, "not started")
	}
	sample := func() []string {
		out := make([]string, len(procs))
		for i, p := range procs {
			out[i] = p.state.String()
		}
		return out
	}
	var at1 []string
	e.Spawn("probe", func(p *Proc) {
		// Scheduled after yield's wake at t=1ns and before the event its
		// Yield call enqueues there, so it samples yield parked in Yield.
		e.Schedule(1, func() { at1 = sample() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"sleeping until 2.500us", "sleeping 1.250us", "yielding", "finished"}
	if fmt.Sprint(at1) != fmt.Sprint(want) {
		t.Errorf("states at t=1ns = %q, want %q", at1, want)
	}
}

// pickSched returns a fixed index once the frontier is wide enough, and
// the canonical 0 otherwise.
type pickSched struct{ width, index int }

func (s pickSched) Pick(now Time, frontier []EventInfo) int {
	if len(frontier) >= s.width {
		return s.index
	}
	return 0
}

// TestEnginePanicsSurfaceFromRun: a panic raised by engine-side code (an
// event callback, a gauge underflow, a scheduler returning a bad index) is
// a bug in the caller's model, not in a simulated process, so it must
// propagate out of Run on the caller's goroutine — not be folded into a
// "process panicked" error — and leave the engine answering its audits and no
// goroutine behind beyond the processes that were still blocked and the
// workers that went back on the free list.
func TestEnginePanicsSurfaceFromRun(t *testing.T) {
	cases := []struct {
		name    string
		build   func(e *Engine, tail func(p *Proc))
		wantSub string
	}{
		{
			name: "scheduled callback",
			build: func(e *Engine, tail func(p *Proc)) {
				e.Spawn("p", func(p *Proc) {
					e.Schedule(p.Now()+Time(Microsecond), func() { panic("callback exploded") })
					tail(p)
				})
			},
			wantSub: "callback exploded",
		},
		{
			name: "gauge underflow",
			build: func(e *Engine, tail func(p *Proc)) {
				g := e.NewGauge("inflight")
				e.Spawn("p", func(p *Proc) {
					g.DecAt(p.Now() + Time(Microsecond))
					tail(p)
				})
			},
			wantSub: "sim: gauge inflight went negative",
		},
		{
			name: "scheduler picks out of range",
			build: func(e *Engine, tail func(p *Proc)) {
				e.SetScheduler(pickSched{width: 2, index: 2})
				e.Spawn("p", func(p *Proc) {
					e.After(Microsecond, func() {})
					e.After(Microsecond, func() {})
					tail(p)
				})
			},
			wantSub: "sim: scheduler picked index 2 of a 2-event frontier",
		},
	}
	tails := []struct {
		name    string
		tail    func(p *Proc)
		blocked int // processes still parked when the panic fires
	}{
		{"process finished", func(p *Proc) {}, 0},
		{"process parked", func(p *Proc) { p.Sleep(5 * Microsecond) }, 1},
	}
	for _, tc := range cases {
		for _, tl := range tails {
			t.Run(tc.name+"/"+tl.name, func(t *testing.T) {
				before := busyGoroutines()
				e := NewEngine()
				tc.build(e, tl.tail)
				var runErr error
				r := func() (r interface{}) {
					defer func() { r = recover() }()
					runErr = e.Run()
					return nil
				}()
				if r == nil {
					t.Fatalf("Run returned %v, want a panic", runErr)
				}
				if got := fmt.Sprint(r); !strings.Contains(got, tc.wantSub) || strings.Contains(got, "panicked") {
					t.Fatalf("panic = %q, want the raw %q", got, tc.wantSub)
				}
				audit := fmt.Sprint(e.CheckQuiescent())
				if got := strings.Contains(audit, "1 of 1 processes never finished"); got != (tl.blocked == 1) {
					t.Errorf("CheckQuiescent after the panic = %s, want %d processes unfinished", audit, tl.blocked)
				}
				if st := e.Stats(); st.Processes-st.Finished != tl.blocked {
					t.Errorf("%d of %d processes unfinished, want %d", st.Processes-st.Finished, st.Processes, tl.blocked)
				}
				// A finished process's worker goes idle (or exits) just after
				// its last drive; give it a moment.
				deadline := time.Now().Add(2 * time.Second)
				for busyGoroutines() > before+tl.blocked && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := busyGoroutines(); n > before+tl.blocked {
					t.Errorf("%d goroutines that are not idle workers after Run, %d before: more than the %d parked processes leaked", n, before, tl.blocked)
				}
			})
		}
	}
}

// randomSched picks uniformly from every frontier it is offered.
type randomSched struct {
	rng   *rand.Rand
	picks int
}

func (s *randomSched) Pick(now Time, frontier []EventInfo) int {
	for i := 1; i < len(frontier); i++ {
		if frontier[i-1].Seq >= frontier[i].Seq {
			panic(fmt.Sprintf("frontier not in ascending seq order: %v", frontier))
		}
	}
	s.picks++
	return s.rng.Intn(len(frontier))
}

// TestEventOrderMatchesSortedReference is the event queue's property
// test at the engine surface: events pushed with random times (many
// colliding), some from inside callbacks while the queue drains, must fire
// in (time, schedule order) — and under a scheduler that picks at random
// from each frontier (the pop-frontier/push-back path), still in
// non-decreasing time with every event fired exactly once.
func TestEventOrderMatchesSortedReference(t *testing.T) {
	type fired struct {
		at Time
		id int
	}
	for _, withSched := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var sched *randomSched
			if withSched {
				sched = &randomSched{rng: rand.New(rand.NewSource(seed + 100))}
				e.SetScheduler(sched)
			}
			var got, want []fired
			next := 0
			var push func(depth int)
			push = func(depth int) {
				id := next
				next++
				at := e.Now() + Time(rng.Intn(40))
				want = append(want, fired{at, id})
				e.schedule(at, nil, func() {
					got = append(got, fired{e.Now(), id})
					if depth < 3 && rng.Intn(3) == 0 {
						for k := rng.Intn(4); k > 0; k-- {
							push(depth + 1)
						}
					}
				})
			}
			e.Spawn("src", func(p *Proc) {
				for i := 0; i < 300; i++ {
					push(0)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d sched=%v: fired %d of %d events", seed, withSched, len(got), len(want))
			}
			if withSched {
				if sched.picks == 0 {
					t.Fatalf("seed %d: scheduler never consulted", seed)
				}
				// Any order within a time is legal; compare as multisets
				// after checking time never ran backwards.
				for i := 1; i < len(got); i++ {
					if got[i].at < got[i-1].at {
						t.Fatalf("seed %d: time ran backwards at %d: %v after %v", seed, i, got[i], got[i-1])
					}
				}
				sort.Slice(got, func(i, j int) bool { return got[i].id < got[j].id })
			} else {
				// ids are handed out in schedule order, so (at, id) is
				// the engine's (at, seq).
				sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d sched=%v: event %d fired as %v, want %v", seed, withSched, i, got[i], want[i])
				}
			}
		}
	}
}

// before reports whether a fires ahead of b: the order the queue owes.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// checkReleased fails if a drained queue still references a callback from
// any slot of any bucket it keeps for reuse.
func checkReleased(t *testing.T, q *eventQueue) {
	t.Helper()
	if q.n != 0 || len(q.times) != 0 || len(q.byTime) != 0 || q.last != nil {
		t.Fatalf("drained queue has %d events, %d buckets on the heap, %d in the map, last = %v", q.n, len(q.times), len(q.byTime), q.last)
	}
	for i, b := range q.free {
		if b.head != 0 || len(b.events) != 0 {
			t.Fatalf("free bucket %d still holds events[%d:%d]", i, b.head, len(b.events))
		}
		for j, slot := range b.events[:cap(b.events)] {
			if slot.fire != nil {
				t.Fatalf("drained queue still references a callback in slot %d of free bucket %d", j, i)
			}
		}
	}
}

// TestEventQueueAgainstSortedReference drives the queue directly:
// random interleaved pushes and pops, with heavy (at) collisions, must
// pop in exactly the order a sorted slice gives; popping a whole
// same-time frontier and pushing all but one back must leave that order
// intact.
func TestEventQueueAgainstSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []event // kept sorted by (at, seq)
		var seq uint64
		insert := func(ev event) {
			q.push(ev)
			i := sort.Search(len(ref), func(i int) bool { return ev.before(&ref[i]) })
			ref = append(ref, event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
		}
		remove := func(seq uint64) {
			for i := range ref {
				if ref[i].seq == seq {
					ref = append(ref[:i], ref[i+1:]...)
					return
				}
			}
			t.Fatalf("seed %d: popped seq %d is not in the reference", seed, seq)
		}
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || q.n == 0:
				seq++
				insert(event{at: Time(rng.Intn(30)), seq: seq, fire: func() {}})
			case op < 8:
				got := q.pop()
				if got.at != ref[0].at || got.seq != ref[0].seq {
					t.Fatalf("seed %d step %d: popped (%d,%d), want (%d,%d)", seed, step, got.at, got.seq, ref[0].at, ref[0].seq)
				}
				ref = ref[1:]
			default:
				first := q.pop()
				batch := []event{first}
				for q.n > 0 && q.times[0].at == first.at {
					batch = append(batch, q.pop())
				}
				for i := range batch {
					if batch[i].at != ref[i].at || batch[i].seq != ref[i].seq {
						t.Fatalf("seed %d step %d: frontier[%d] = (%d,%d), want (%d,%d)", seed, step, i, batch[i].at, batch[i].seq, ref[i].at, ref[i].seq)
					}
				}
				k := rng.Intn(len(batch))
				remove(batch[k].seq)
				for i := range batch {
					if i != k {
						q.push(batch[i])
					}
				}
			}
			if q.n != len(ref) {
				t.Fatalf("seed %d step %d: queue holds %d events, reference %d", seed, step, q.n, len(ref))
			}
		}
		for q.n > 0 {
			got := q.pop()
			if got.seq != ref[0].seq {
				t.Fatalf("seed %d drain: popped seq %d, want %d", seed, got.seq, ref[0].seq)
			}
			ref = ref[1:]
		}
		checkReleased(t, &q)
	}
}

// TestEventQueueBuckets pins what the per-time buckets add to the order:
// a push lands in a bucket that is open, half drained or not there yet, the
// picked member of the head frontier leaves in place, and drained buckets
// are reused holding nothing.
func TestEventQueueBuckets(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	ev := func(at Time, seq uint64) event { return event{at: at, seq: seq, fire: func() {}} }
	drain := func(q *eventQueue) (out []key) {
		for q.n > 0 {
			e := q.pop()
			out = append(out, key{e.at, e.seq})
		}
		return out
	}
	expect := func(t *testing.T, got, want []key) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}

	t.Run("push at the head time while the head bucket is half drained", func(t *testing.T) {
		var q eventQueue
		for _, e := range []event{ev(5, 1), ev(5, 2), ev(5, 3), ev(9, 4)} {
			q.push(e)
		}
		if e := q.pop(); e.seq != 1 {
			t.Fatalf("popped seq %d first, want 1", e.seq)
		}
		q.push(ev(5, 5))
		q.push(ev(9, 6))
		if q.opened != 2 || len(q.head()) != 3 {
			t.Fatalf("%d buckets opened, %d events at the head; want 2 and 3", q.opened, len(q.head()))
		}
		expect(t, drain(&q), []key{{5, 2}, {5, 3}, {5, 5}, {9, 4}, {9, 6}})
		// The head time again, once its bucket has gone: a new bucket, which
		// is the old one.
		q.push(ev(9, 7))
		if q.opened != 3 || len(q.free) != 1 {
			t.Fatalf("%d buckets opened and %d free after reopening a drained time, want 3 and 1", q.opened, len(q.free))
		}
		expect(t, drain(&q), []key{{9, 7}})
		checkReleased(t, &q)
	})

	t.Run("push earlier than every pending time", func(t *testing.T) {
		var q eventQueue
		for _, e := range []event{ev(10, 1), ev(20, 2), ev(10, 3), ev(30, 4), ev(40, 5), ev(25, 6), ev(35, 7)} {
			q.push(e)
		}
		q.push(ev(3, 8))
		if at := q.times[0].at; at != 3 {
			t.Fatalf("head time %d after pushing at 3, want 3", at)
		}
		q.push(ev(1, 9))
		q.push(ev(3, 10))
		expect(t, drain(&q), []key{{1, 9}, {3, 8}, {3, 10}, {10, 1}, {10, 3}, {20, 2}, {25, 6}, {30, 4}, {35, 7}, {40, 5}})
		if q.peak != 10 {
			t.Fatalf("peak %d, want 10", q.peak)
		}
		checkReleased(t, &q)
	})

	for _, k := range []int{0, 2, 4} { // first, middle, last of five
		t.Run(fmt.Sprintf("remove member %d of the head frontier", k), func(t *testing.T) {
			var q eventQueue
			q.push(ev(8, 1))
			for seq := uint64(2); seq <= 6; seq++ {
				q.push(ev(7, seq))
			}
			got := q.remove(k)
			if got.at != 7 || got.seq != uint64(2+k) {
				t.Fatalf("remove(%d) = (%d,%d), want (7,%d)", k, got.at, got.seq, 2+k)
			}
			q.push(ev(7, 7)) // what the fired event schedules at its own time
			var want []key
			for seq := uint64(2); seq <= 7; seq++ {
				if seq != got.seq {
					want = append(want, key{7, seq})
				}
			}
			for i, e := range q.head() {
				if (key{e.at, e.seq}) != want[i] {
					t.Fatalf("head()[%d] = (%d,%d), want %v", i, e.at, e.seq, want[i])
				}
			}
			// Taking the rest from the back closes the bucket on its last.
			for n := len(want); n > 0; n-- {
				if got := q.remove(n - 1); (key{got.at, got.seq}) != want[n-1] {
					t.Fatalf("remove(%d) = (%d,%d), want %v", n-1, got.at, got.seq, want[n-1])
				}
			}
			expect(t, drain(&q), []key{{8, 1}})
			checkReleased(t, &q)
		})
	}
}

// TestAllocsPerEventFence keeps the scheduler-free hot path lean: 64
// processes pass tokens round a mailbox ring, each hop taking a shared
// resource and sleeping, and the whole run — engine, processes, heap growth
// included — may allocate at most one object per two events fired: what is
// left is the engine, the processes and the heap's growth, and one closure
// per deposit, decrement or wait would already double it. Formatting a state
// string or a label per event, or boxing events, breaks it at once.
func TestAllocsPerEventFence(t *testing.T) {
	const procs, rounds = 64, 40
	any := func(interface{}) bool { return true }
	names := make([]string, procs)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	var events int64
	allocs := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		link := e.NewResource("link")
		boxes := make([]*Mailbox, procs)
		for i := range boxes {
			boxes[i] = e.NewMailbox(names[i])
		}
		for i := 0; i < procs; i++ {
			i := i
			e.Spawn(names[i], func(p *Proc) {
				for r := 0; r < rounds; r++ {
					_, end := link.Acquire(10 * Nanosecond)
					boxes[(i+1)%procs].PutAt(end, r)
					boxes[i].Get(p, "token", any)
					p.Sleep(Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		events = e.Stats().Events
	})
	if perEvent := allocs / float64(events); perEvent > 0.5 {
		t.Fatalf("%.2f allocations per event (%.0f over %d events), fence is 0.5", perEvent, allocs, events)
	} else {
		t.Logf("%.2f allocations per event (%.0f over %d events)", perEvent, allocs, events)
	}
}
