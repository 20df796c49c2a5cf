package sim

import (
	"fmt"
	"testing"
)

// TestMailboxClearsVacatedSlots: removing an item or a waiter shifts the
// rest down and must clear the slot vacated at the tail, or the mailbox
// keeps the last removed item — in payload runs a cloned message buffer —
// reachable until a later deposit happens to overwrite it. Every way out
// of the mailbox is used: a Get that finds its item queued, a TryGet, and
// Gets that wait and are served by a deposit.
func TestMailboxClearsVacatedSlots(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("inbox")
	any := func(interface{}) bool { return true }
	is := func(want string) func(interface{}) bool {
		return func(v interface{}) bool { return v == want }
	}
	e.Spawn("sender", func(p *Proc) {
		for _, v := range []string{"a", "b", "c", "d"} {
			m.PutAt(p.Now(), v)
		}
		p.Sleep(10 * Microsecond)
		m.PutAt(p.Now(), "e")
		m.PutAt(p.Now(), "f")
	})
	e.Spawn("queued", func(p *Proc) {
		p.Sleep(Microsecond)
		m.Get(p, "b", is("b")) // from the middle
		if _, ok := m.TryGet(is("a")); !ok {
			t.Error("TryGet(a) found nothing")
		}
		m.Get(p, "any", any)
		m.Get(p, "any", any)
	})
	e.Spawn("w1", func(p *Proc) { p.Sleep(2 * Microsecond); m.Get(p, "e", is("e")) })
	e.Spawn("w2", func(p *Proc) { p.Sleep(3 * Microsecond); m.Get(p, "f", is("f")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.items) != 0 || len(m.waiters) != 0 {
		t.Fatalf("mailbox not drained: %d items, %d waiters", len(m.items), len(m.waiters))
	}
	if cap(m.items) == 0 || cap(m.waiters) == 0 {
		t.Fatalf("nothing was ever queued (cap %d items, %d waiters): the test checks nothing", cap(m.items), cap(m.waiters))
	}
	for i, slot := range m.items[:cap(m.items)] {
		if slot != (mailItem{}) {
			t.Errorf("drained mailbox still references item %v in slot %d", slot.v, i)
		}
	}
	for i, slot := range m.waiters[:cap(m.waiters)] {
		if slot != nil {
			t.Errorf("drained mailbox still references a waiter in slot %d", i)
		}
	}
}

// triple is a test item received by value: its (ctx, src, tag).
type triple [3]int

func triples(describes *int) *Matcher {
	return &Matcher{
		Match: func(item interface{}, ctx, src, tag int) bool {
			it := item.(triple)
			return it[0] == ctx && (src < 0 || it[1] == src) && it[2] == tag
		},
		Describe: func(ctx, src, tag int) string {
			*describes++
			return fmt.Sprintf("triple(%d,%d,%d)", ctx, src, tag)
		},
	}
}

// TestMailboxServesPredicateAndValueWaitersInOrder: receives by predicate
// and by value share one waiter list, so a deposit both kinds accept goes
// to whichever started waiting first; a receive by value takes the first
// queued item it matches, in arrival order; and nothing is rendered for a
// receive that completes.
func TestMailboxServesPredicateAndValueWaitersInOrder(t *testing.T) {
	any := func(interface{}) bool { return true }
	for _, valueFirst := range []bool{false, true} {
		var describes int
		by := triples(&describes)
		e := NewEngine()
		m := e.NewMailbox("inbox")
		var order []string
		byPredicate := func(name string) func(*Proc) {
			return func(p *Proc) {
				order = append(order, fmt.Sprintf("%s=%v", name, m.Get(p, "any", any)))
			}
		}
		byValue := func(name string, src int) func(*Proc) {
			return func(p *Proc) {
				order = append(order, fmt.Sprintf("%s=%v", name, m.GetMatch(p, by, 1, src, 7)))
			}
		}
		// Spawn order is start order: both wait from t=0, in this order.
		if valueFirst {
			e.Spawn("val", byValue("val", -1))
			e.Spawn("pred", byPredicate("pred"))
		} else {
			e.Spawn("pred", byPredicate("pred"))
			e.Spawn("val", byValue("val", -1))
		}
		e.Spawn("sender", func(p *Proc) {
			p.Sleep(Microsecond)
			m.PutAt(p.Now(), triple{1, 4, 7})
			m.PutAt(p.Now(), triple{1, 5, 7})
			// Three more queue up unclaimed; a late receive from source 9
			// skips the first two.
			p.Sleep(Microsecond)
			m.PutAt(p.Now(), triple{2, 9, 7})
			m.PutAt(p.Now(), triple{1, 8, 7})
			m.PutAt(p.Now(), triple{1, 9, 7})
		})
		e.Spawn("late", func(p *Proc) {
			p.Sleep(5 * Microsecond)
			byValue("late", 9)(p)
			if got := m.Pending(); got != 2 {
				t.Errorf("valueFirst=%v: %d items left, want 2", valueFirst, got)
			}
			m.Get(p, "any", any)
			m.Get(p, "any", any)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := "[pred=[1 4 7] val=[1 5 7] late=[1 9 7]]"
		if valueFirst {
			want = "[val=[1 4 7] pred=[1 5 7] late=[1 9 7]]"
		}
		if got := fmt.Sprint(order); got != want {
			t.Errorf("valueFirst=%v: served %s, want %s", valueFirst, got, want)
		}
		if describes != 0 {
			t.Errorf("valueFirst=%v: Describe called %d times in a run that printed no report", valueFirst, describes)
		}
	}
}

// TestMailboxArrivalsFindTheirItem: the arrival event carries no operand —
// it finds its item on the mailbox's wire by sequence number — so items put
// in one order and arriving in another, or arriving together under a
// scheduler that fires the later-scheduled arrival first, must each deliver
// their own, and an emptied wire must hold on to none of them.
func TestMailboxArrivalsFindTheirItem(t *testing.T) {
	any := func(interface{}) bool { return true }
	for _, lastFirst := range []bool{false, true} {
		e := NewEngine()
		if lastFirst {
			e.SetScheduler(pickSched{width: 2, index: 1}) // the two arrivals at t=20: the later-scheduled first
		}
		m := e.NewMailbox("inbox")
		var got []interface{}
		e.Spawn("rx", func(p *Proc) {
			m.PutAt(Time(30*Microsecond), "slow")
			m.PutAt(Time(10*Microsecond), "fast")
			m.PutAt(Time(20*Microsecond), "tie-a")
			m.PutAt(Time(20*Microsecond), "tie-b")
			for i := 0; i < 4; i++ {
				got = append(got, m.Get(p, "any", any))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := "[fast tie-a tie-b slow]"
		if lastFirst {
			want = "[fast tie-b tie-a slow]"
		}
		if fmt.Sprint(got) != want {
			t.Errorf("lastFirst=%v: received %v, want %s", lastFirst, got, want)
		}
		if len(m.wire) != 0 {
			t.Fatalf("lastFirst=%v: %d items still on the wire", lastFirst, len(m.wire))
		}
		for i, slot := range m.wire[:cap(m.wire)] {
			if slot.v != nil {
				t.Errorf("lastFirst=%v: emptied wire still references item %v in slot %d", lastFirst, slot.v, i)
			}
		}
	}
}

// TestMailboxWireDeepAndLong: an arrival finds its item however many are in
// flight and in whatever order they land, and the wire does not grow with the
// traffic that has passed through it. Deep: 1000 items put up front — every
// send of a direct exchange is posted before any lands — that arrive last-put
// first, so each is found by search and leaves a hole until the first-put
// lands. Long: 20 000 items with three in flight at a time, as a pipelined
// ring keeps a mailbox from ever emptying.
func TestMailboxWireDeepAndLong(t *testing.T) {
	any := func(interface{}) bool { return true }

	const deep = 1000
	e := NewEngine()
	m := e.NewMailbox("deep")
	e.Spawn("rx", func(p *Proc) {
		for i := 0; i < deep; i++ {
			m.PutAt(Time(deep-i)*Time(Microsecond), i)
		}
		for want := deep - 1; want >= 0; want-- {
			if got := m.Get(p, "any", any); got != want {
				t.Fatalf("deep: received %v, want %d", got, want)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.wire) != 0 || m.head != 0 {
		t.Errorf("deep: wire not empty at the end: len %d, head %d", len(m.wire), m.head)
	}

	const long = 20000
	e = NewEngine()
	m = e.NewMailbox("long")
	e.Spawn("tx", func(p *Proc) {
		for i := 0; i < long; i++ {
			m.PutAt(p.Now()+Time(3*Microsecond), i)
			p.Sleep(Microsecond)
		}
	})
	e.Spawn("rx", func(p *Proc) {
		for want := 0; want < long; want++ {
			if got := m.Get(p, "any", any); got != want {
				t.Fatalf("long: received %v, want %d", got, want)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c := cap(m.wire); c > 16 {
		t.Errorf("long: three items in flight at a time left a wire of capacity %d", c)
	}
}
