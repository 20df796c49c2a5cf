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
// "process panicked" error — and leave the engine lock free and no
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
				if !e.mu.TryLock() {
					t.Fatal("engine lock still held after Run panicked")
				}
				e.mu.Unlock()
				if st := e.Stats(); st.Processes-st.Finished != tl.blocked {
					t.Errorf("%d of %d processes unfinished, want %d", st.Processes-st.Finished, st.Processes, tl.blocked)
				}
				// A finished process's worker goes idle (or exits) just after
				// releasing the engine lock; give it a moment.
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
			// push runs with the engine lock held: callbacks fire that
			// way, and the seeding process takes it for the purpose.
			var push func(depth int)
			push = func(depth int) {
				id := next
				next++
				at := e.Now() + Time(rng.Intn(40))
				want = append(want, fired{at, id})
				e.scheduleLocked(at, func() {
					got = append(got, fired{e.Now(), id})
					if depth < 3 && rng.Intn(3) == 0 {
						for k := rng.Intn(4); k > 0; k-- {
							push(depth + 1)
						}
					}
				})
			}
			e.Spawn("src", func(p *Proc) {
				e.mu.Lock()
				defer e.mu.Unlock()
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

// TestEventQueueAgainstSortedReference drives the typed heap directly:
// random interleaved pushes and pops, with heavy (at) collisions, must
// pop in exactly the order a sorted slice gives; popping a whole
// same-time frontier and pushing all but one back — what nextEventLocked
// does under a scheduler — must leave that order intact.
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
			case op < 5 || len(q) == 0:
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
				for len(q) > 0 && q[0].at == first.at {
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
			if len(q) != len(ref) {
				t.Fatalf("seed %d step %d: queue holds %d events, reference %d", seed, step, len(q), len(ref))
			}
		}
		for len(q) > 0 {
			got := q.pop()
			if got.seq != ref[0].seq {
				t.Fatalf("seed %d drain: popped seq %d, want %d", seed, got.seq, ref[0].seq)
			}
			ref = ref[1:]
		}
		for i, slot := range q[:cap(q)] {
			if slot.fire != nil {
				t.Fatalf("seed %d: drained queue still references a callback in slot %d", seed, i)
			}
		}
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
