package sim

import (
	"fmt"
	"slices"
)

// The scheduler seam.
//
// The engine's canonical order fires simultaneous events by ascending
// sequence number. That is one legal serialization of the frontier of
// co-enabled events, but any permutation of same-time events is equally
// legal under the simulation's semantics: virtual time cannot move
// backwards, so the ONLY nondeterminism a real system would exhibit that
// the canonical order hides is the ordering of events that share a fire
// time. A Scheduler makes that choice explicit and pluggable, which is
// what lets internal/explore enumerate the interleaving space.
//
// Contract: Pick is called from inside the event loop, between two events,
// with the full frontier of minimum-time events, ordered by ascending
// sequence number (index 0 is the canonical choice). It must return an
// index into frontier without calling back into the engine, blocking, or
// retaining the slice past the call. Virtual time semantics (durations, resource
// queueing) are unaffected by the choice; only the serialization order
// of simultaneous events changes.

// EventInfo identifies one co-enabled event offered to a Scheduler.
type EventInfo struct {
	// Seq is the event's engine-wide schedule sequence number. Within one
	// run it is unique; across runs it is stable only while the executed
	// prefix is identical (replay determinism).
	Seq uint64
	// Label names what the event acts on: "proc:NAME" for a process
	// wake, "mbox:NAME" for a message arrival, "ctr:NAME" for a counter
	// advance, "gauge:NAME" for a gauge decrement, "ext" for events
	// scheduled through the public Schedule/After API.
	Label Key
}

// A Scheduler chooses which of several co-enabled (same virtual time)
// events fires next. Returning 0 everywhere reproduces the engine's
// canonical order exactly.
type Scheduler interface {
	Pick(now Time, frontier []EventInfo) int
}

// StepInfo describes one executed step: the event that fired plus
// everything that ran before the engine quiesced again (the woken
// processes run until they all block). Schedulers that also implement
// StepObserver receive one StepInfo per step, in execution order.
//
// Footprint and Spawned are engine scratch, as Pick's frontier is: they are
// valid only until ObserveStep returns, and an observer copies what it
// keeps.
type StepInfo struct {
	// Seq and Label identify the event that initiated the step.
	Seq   uint64
	Label Key
	// At is the virtual time the step executed at.
	At Time
	// Footprint is the set of shared-state keys the step touched —
	// "proc:NAME", "res:NAME", "mbox:NAME", "ctr:NAME", "gauge:NAME" —
	// sorted by Key.Compare, each name once per kind however many objects
	// share it. Two steps with disjoint footprints commute: executing them
	// in either order yields the same terminal state.
	Footprint []Key
	// Spawned lists the sequence numbers of events scheduled during the
	// step, in creation order. They are causally after this step.
	Spawned []uint64
}

// A StepObserver receives the dependency footprint of every executed
// step. ObserveStep is called from inside the event loop and must not
// call back into the engine or retain the StepInfo's slices past the call.
type StepObserver interface {
	ObserveStep(StepInfo)
}

// SetScheduler installs a scheduling strategy for simultaneous events.
// It must be called before Run; a nil Scheduler keeps the canonical
// order. If s also implements StepObserver the engine collects and
// reports per-step dependency footprints (off otherwise — the canonical
// path pays nothing for the seam).
func (e *Engine) SetScheduler(s Scheduler) {
	if e.started {
		panic("sim: SetScheduler after Run")
	}
	e.sched = s
	e.obs, e.collect = s.(StepObserver)
}

// nextEvent takes the event to fire next off the queue. With no
// scheduler (or a singleton frontier) that is the queue's earliest.
// Otherwise the minimum-time frontier is the queue's head bucket, read in
// place; the scheduler chooses from it and only the chosen event leaves.
func (e *Engine) nextEvent() event {
	if e.sched == nil {
		return e.events.pop()
	}
	pending := e.events.head()
	if len(pending) == 1 {
		return e.events.pop()
	}
	frontier := e.frontier[:0]
	for i := range pending {
		frontier = append(frontier, EventInfo{Seq: pending[i].seq, Label: pending[i].on.key()})
	}
	e.frontier = frontier
	k := e.sched.Pick(pending[0].at, frontier)
	if k < 0 || k >= len(pending) {
		panic(fmt.Sprintf("sim: scheduler picked index %d of a %d-event frontier", k, len(pending)))
	}
	return e.events.remove(k)
}

// beginStep opens footprint collection for the step initiated by
// ev. No-op unless a StepObserver is installed.
func (e *Engine) beginStep(ev event) {
	if !e.collect {
		return
	}
	e.stepOpen = true
	e.stepSeq = ev.seq
	e.stepOn = ev.on
	e.stepAt = ev.at
	e.foot = e.foot[:0]
	e.spawned = e.spawned[:0]
}

// flushStep closes the open step, if any, and delivers its
// StepInfo to the observer. Called when the engine quiesces (all
// processes blocked again) before the next event is chosen.
func (e *Engine) flushStep() {
	if !e.stepOpen {
		return
	}
	e.stepOpen = false
	// Keys are deduplicated by name, not by object: two resources may share
	// a name, and observers see names (see Key).
	fp := e.footKeys[:0]
	for _, l := range e.foot {
		fp = append(fp, l.key())
	}
	slices.SortFunc(fp, Key.Compare)
	fp = slices.Compact(fp)
	e.footKeys = fp
	e.obs.ObserveStep(StepInfo{Seq: e.stepSeq, Label: e.stepOn.key(), At: e.stepAt, Footprint: fp, Spawned: e.spawned})
}

// note records that the current step touched the labelled piece of
// shared state. Footprints are tiny (a handful of keys per step), so a
// linear-scan dedup on a slice beats a map and keeps iteration order
// deterministic. With no StepObserver it is one untaken branch.
func (e *Engine) note(l *label) {
	if !e.stepOpen {
		return
	}
	for _, k := range e.foot {
		if k == l {
			return
		}
	}
	e.foot = append(e.foot, l)
}
