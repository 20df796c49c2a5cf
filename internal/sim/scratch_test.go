package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// observeAll takes the canonical order and observes every step, so a run
// grows the frontier and footprint scratch the way an explorer's does.
type observeAll struct{}

func (observeAll) Pick(Time, []EventInfo) int { return 0 }
func (observeAll) ObserveStep(StepInfo)       {}

// dropScratch empties the scratch free list.
func dropScratch() {
	for {
		select {
		case <-idleScratch:
		default:
			return
		}
	}
}

// scratchRun runs procs processes that tick a shared counter at shared
// times under observeAll; the first one ends with last, if given.
func scratchRun(e *Engine, procs int, last func(p *Proc)) error {
	e.SetScheduler(observeAll{})
	c := e.NewCounter("ticks")
	for i := 0; i < procs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(Microsecond)
				c.Add(1)
			}
			if i == 0 && last != nil {
				last(p)
			}
		})
	}
	return e.Run()
}

// checkFresh fails unless the engine's queue and step scratch are what a
// new engine's are: empty, with no slot up to capacity holding a pointer.
func checkFresh(t *testing.T, e *Engine) {
	t.Helper()
	checkReleased(t, &e.events)
	if cap(e.events.times) > 0 {
		for i, b := range e.events.times[:cap(e.events.times)] {
			if b != nil {
				t.Fatalf("heap slot %d past the end still holds a bucket", i)
			}
		}
	}
	if len(e.frontier) != 0 || len(e.foot) != 0 || len(e.footKeys) != 0 || len(e.spawned) != 0 {
		t.Fatalf("new engine has a frontier of %d, a footprint of %d/%d keys and %d spawned",
			len(e.frontier), len(e.foot), len(e.footKeys), len(e.spawned))
	}
	for i, f := range e.frontier[:cap(e.frontier)] {
		if f != (EventInfo{}) {
			t.Fatalf("frontier slot %d holds %v", i, f)
		}
	}
	for i, l := range e.foot[:cap(e.foot)] {
		if l != nil {
			t.Fatalf("footprint slot %d holds %v", i, l.key())
		}
	}
	for i, k := range e.footKeys[:cap(e.footKeys)] {
		if k != (Key{}) {
			t.Fatalf("footprint key slot %d holds %v", i, k)
		}
	}
}

// TestEngineScratchIsHandedOn: a clean run leaves its scratch for the
// next engine, emptied; one that deadlocked or panicked keeps its own,
// so the engine built after it starts with an empty queue and scratch.
func TestEngineScratchIsHandedOn(t *testing.T) {
	dropScratch()
	if err := scratchRun(NewEngine(), 8, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(idleScratch); n != 1 {
		t.Fatalf("%d scratch sets kept after a clean run, want 1", n)
	}
	e := NewEngine()
	if len(e.events.free) == 0 || cap(e.frontier) == 0 || cap(e.foot) == 0 {
		t.Fatalf("engine after a clean run took %d free buckets, a frontier of cap %d and a footprint of cap %d",
			len(e.events.free), cap(e.frontier), cap(e.foot))
	}
	checkFresh(t, e)

	never := func(any) bool { return false }
	for _, tc := range []struct {
		name, want string
		last       func(p *Proc)
	}{
		{"deadlock", "deadlock", func(p *Proc) { p.eng.mailboxes[0].Get(p, "nothing", never) }},
		{"process panic", "rank exploded", func(p *Proc) { panic("rank exploded") }},
		{"engine panic", "callback exploded", func(p *Proc) {
			p.eng.After(Microsecond, func() { panic("callback exploded") })
			p.Sleep(2 * Microsecond)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The failing engine takes a clean run's scratch and grows it.
			dropScratch()
			if err := scratchRun(NewEngine(), 8, nil); err != nil {
				t.Fatal(err)
			}
			bad := NewEngine()
			bad.NewMailbox("empty")
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("%v", r)
					}
				}()
				err = scratchRun(bad, 8, tc.last)
			}()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run ended with %v, want %q", err, tc.want)
			}
			if tc.name == "deadlock" && !errors.Is(err, ErrDeadlock) {
				t.Fatalf("run ended with %v, want ErrDeadlock", err)
			}
			if n := len(idleScratch); n != 0 {
				t.Fatalf("%d scratch sets kept after a failed run, want 0", n)
			}
			checkFresh(t, NewEngine())
		})
	}
}

// TestEngineScratchIsBounded: after a run with more distinct pending times
// than a kept heap may hold, and a time with more events than a kept bucket
// may hold, the set handed on holds nothing past the caps.
func TestEngineScratchIsBounded(t *testing.T) {
	dropScratch()
	e := NewEngine()
	e.SetScheduler(observeAll{})
	for i := 0; i < maxKeptSlots+40; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(i+1) * Nanosecond) // one time each
			p.Sleep(Microsecond)                // then all at nearby times
			p.WaitUntil(Time(2 * Microsecond))  // then all at one
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := <-idleScratch
	if cap(s.times) > maxKeptSlots || cap(s.free) > maxKeptSlots || len(s.free) > maxKeptBuckets ||
		cap(s.frontier) > maxKeptSlots || cap(s.foot) > maxKeptSlots || cap(s.footKeys) > maxKeptSlots ||
		cap(s.spawned) > maxKeptSlots {
		t.Fatalf("kept set past its caps: heap %d, free %d of cap %d, frontier %d, footprint %d/%d, spawned %d",
			cap(s.times), len(s.free), cap(s.free), cap(s.frontier), cap(s.foot), cap(s.footKeys), cap(s.spawned))
	}
	for i, b := range s.free {
		if cap(b.events) > maxKeptEvents {
			t.Fatalf("kept bucket %d has %d slots, cap is %d", i, cap(b.events), maxKeptEvents)
		}
	}
}
