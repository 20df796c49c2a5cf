package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// canonicalSched always picks index 0: the engine's own order.
type canonicalSched struct{}

func (canonicalSched) Pick(now Time, frontier []EventInfo) int { return 0 }

// lastSched always picks the highest-seq frontier member, maximally
// perturbing the canonical order.
type lastSched struct{ picks int }

func (s *lastSched) Pick(now Time, frontier []EventInfo) int {
	s.picks++
	return len(frontier) - 1
}

// recordingSched picks canonically and records every step footprint.
type recordingSched struct {
	frontiers [][]EventInfo
	steps     []StepInfo
}

func (s *recordingSched) Pick(now Time, frontier []EventInfo) int {
	cp := make([]EventInfo, len(frontier))
	copy(cp, frontier)
	s.frontiers = append(s.frontiers, cp)
	return 0
}

// ObserveStep keeps a copy of the step: its slices are the engine's
// scratch and are overwritten by the next step.
func (s *recordingSched) ObserveStep(info StepInfo) {
	info.Footprint = slices.Clone(info.Footprint)
	info.Spawned = slices.Clone(info.Spawned)
	s.steps = append(s.steps, info)
}

// raceWorld builds a two-proc scenario where both processes wake at the
// same virtual time and append their name to order.
func raceWorld(order *[]string, sched Scheduler) *Engine {
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Sleep(5 * Microsecond)
			*order = append(*order, name)
		})
	}
	if sched != nil {
		e.SetScheduler(sched)
	}
	return e
}

func TestSchedulerCanonicalPickMatchesDefault(t *testing.T) {
	var defOrder, canOrder []string
	if err := raceWorld(&defOrder, nil).Run(); err != nil {
		t.Fatal(err)
	}
	if err := raceWorld(&canOrder, canonicalSched{}).Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(defOrder) != fmt.Sprint(canOrder) {
		t.Fatalf("canonical scheduler diverged from default: %v vs %v", defOrder, canOrder)
	}
}

func TestSchedulerReordersSameTimeEvents(t *testing.T) {
	// Both start events are co-enabled at t=0; picking the last frontier
	// member must run proc b before proc a.
	var order []string
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			order = append(order, name)
		})
	}
	s := &lastSched{}
	e.SetScheduler(s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[b a]" {
		t.Fatalf("pick-last scheduler should reverse same-time starts, got %v", order)
	}
	if s.picks == 0 {
		t.Fatal("scheduler was never consulted")
	}
}

// onceSched picks a fixed member of the first frontier of a given width and
// canonically ever after, recording the sequence numbers it was offered.
type onceSched struct {
	width, index int
	used         bool
	offered      [][]uint64
}

func (s *onceSched) Pick(now Time, frontier []EventInfo) int {
	seqs := make([]uint64, len(frontier))
	for i, f := range frontier {
		seqs[i] = f.Seq
	}
	s.offered = append(s.offered, seqs)
	if !s.used && len(frontier) == s.width {
		s.used = true
		return s.index
	}
	return 0
}

// TestSchedulerPickLeavesFrontierInOrder: the event a scheduler picks is
// taken out of the head bucket where it stands, whether it is the first,
// a middle or the last member; the others are offered again in ascending
// sequence order, joined at the end by what the fired event scheduled for
// the same instant, and each fires once.
func TestSchedulerPickLeavesFrontierInOrder(t *testing.T) {
	for _, k := range []int{0, 2, 4} {
		e := NewEngine()
		s := &onceSched{width: 5, index: k}
		e.SetScheduler(s)
		var fired []int
		e.Spawn("src", func(p *Proc) {
			for id := 0; id < 5; id++ {
				e.After(Microsecond, func() {
					fired = append(fired, id)
					if id == k {
						e.Schedule(e.Now(), func() { fired = append(fired, 5) })
					}
				})
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := []int{k}
		for id := 0; id <= 5; id++ {
			if id != k {
				want = append(want, id)
			}
		}
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Errorf("pick %d: fired %v, want %v", k, fired, want)
		}
		if len(s.offered) != 5 {
			t.Fatalf("pick %d: scheduler consulted %d times, want 5 (frontiers of 5, 5, 4, 3, 2)", k, len(s.offered))
		}
		first := s.offered[0]
		next := append(append([]uint64{}, first[:k]...), first[k+1:]...)
		next = append(next, first[4]+1) // the event the picked one scheduled
		if fmt.Sprint(s.offered[1]) != fmt.Sprint(next) {
			t.Errorf("pick %d: frontier after the pick %v, want %v", k, s.offered[1], next)
		}
	}
}

func TestSchedulerSeesLabeledFrontier(t *testing.T) {
	var order []string
	s := &recordingSched{}
	if err := raceWorld(&order, s).Run(); err != nil {
		t.Fatal(err)
	}
	// Both the start events (t=0) and the wakes (t=5us) are two-element
	// frontiers labeled with the proc names.
	if len(s.frontiers) < 2 {
		t.Fatalf("expected at least 2 multi-event frontiers, got %d", len(s.frontiers))
	}
	for _, f := range s.frontiers {
		if len(f) != 2 || f[0].Label.String() != "proc:a" || f[1].Label.String() != "proc:b" {
			t.Fatalf("unexpected frontier %v", f)
		}
		if f[0].Seq >= f[1].Seq {
			t.Fatalf("frontier not in seq order: %v", f)
		}
	}
}

func TestStepObserverFootprints(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("rail0")
	m := e.NewMailbox("mb")
	e.Spawn("send", func(p *Proc) {
		_, end := r.Acquire(2 * Microsecond)
		m.PutAt(end, "hello")
		p.WaitUntil(end)
	})
	e.Spawn("recv", func(p *Proc) {
		m.Get(p, "msg", func(interface{}) bool { return true })
	})
	s := &recordingSched{}
	e.SetScheduler(s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	joined := ""
	spawnedAny := false
	for _, st := range s.steps {
		joined += st.Label.String() + "{" + joinKeys(st.Footprint) + "} "
		if len(st.Spawned) > 0 {
			spawnedAny = true
		}
	}
	for _, want := range []string{"res:rail0", "mbox:mb", "proc:send", "proc:recv"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no step footprint mentions %s: %s", want, joined)
		}
	}
	if !spawnedAny {
		t.Errorf("no step reported spawned events: %s", joined)
	}
	// The sender's start step acquires the rail and schedules the
	// deposit; the deposit step must carry the mailbox key and the woken
	// receiver's proc key together (that is the dependency DPOR keys on).
	foundDeposit := false
	for _, st := range s.steps {
		fp := joinKeys(st.Footprint)
		if st.Label.String() == "mbox:mb" && strings.Contains(fp, "mbox:mb") && strings.Contains(fp, "proc:recv") {
			foundDeposit = true
		}
	}
	if !foundDeposit {
		t.Errorf("deposit step footprint missing mailbox+receiver keys: %s", joined)
	}
}

// joinKeys renders a footprint as its keys' text, comma-separated.
func joinKeys(fp []Key) string {
	s := make([]string, len(fp))
	for i, k := range fp {
		s[i] = k.String()
	}
	return strings.Join(s, ",")
}

// TestFootprintKeyRules: a key is a kind and a name. A mailbox and a
// process that share the name rank0 stay two keys; two resources that
// share a name fold into one; an event scheduled through After is "ext".
func TestFootprintKeyRules(t *testing.T) {
	e := NewEngine()
	a, b := e.NewResource("rail"), e.NewResource("rail")
	m := e.NewMailbox("rank0")
	e.Spawn("rank0", func(p *Proc) {
		m.Get(p, "msg", func(interface{}) bool { return true })
		a.Acquire(Microsecond)
		b.Acquire(Microsecond)
		p.Sleep(Microsecond)
	})
	e.Spawn("sender", func(p *Proc) {
		m.PutAt(p.Now()+Time(Microsecond), "hello")
		e.After(Microsecond, func() {})
	})
	s := &recordingSched{}
	e.SetScheduler(s)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, st := range s.steps {
		steps = append(steps, st.Label.String()+"{"+joinKeys(st.Footprint)+"}")
	}
	for _, want := range []string{
		"mbox:rank0{proc:rank0,mbox:rank0,res:rail}", // one res:rail for two resources
		"ext{}",
	} {
		if !slices.Contains(steps, want) {
			t.Errorf("no step %s among %v", want, steps)
		}
	}
	if k := (*label)(nil).key(); !k.Ext() || k != (Key{}) {
		t.Errorf("nil label keys as %v, want the zero Key, \"ext\"", k)
	}
}

func TestSetSchedulerAfterRunPanics(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetScheduler after Run did not panic")
		}
	}()
	e.SetScheduler(canonicalSched{})
}
