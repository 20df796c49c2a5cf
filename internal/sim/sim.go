// Package sim implements a deterministic, conservative discrete-event
// simulation engine with virtual time.
//
// Simulated processes are coroutines of the goroutine that calls
// Engine.Run, spawned with Engine.Spawn. They interact with virtual time
// only through blocking primitives (Sleep, WaitUntil, Counter.WaitGE, ...).
// Process execution is serial by construction: Run resumes one process at
// a time and nothing else runs until it parks, and simultaneous events are
// ordered by a monotone sequence number, so a simulation produces
// bit-identical results on every run.
//
// The engine models a closed system: when every process is blocked, the
// earliest pending event fires and advances the clock. If every process is
// blocked and no events are pending, the simulation is deadlocked and Run
// returns an error describing what each process was waiting for.
//
// Nothing in the package is synchronised. An Engine and everything bound to
// it — its processes, mailboxes, counters, gauges and resources, and what a
// layer above builds on them — belongs to one goroutine at a time: the one
// that builds it, then the one that calls Run (process bodies, event
// callbacks, Scheduler and ClockWatcher all run on it), then whoever reads
// Stats or CheckQuiescent once Run has returned or its goroutine has ended.
// Handing an engine from one goroutine to the next needs the ordering any
// other value does (a channel, a WaitGroup); two engines share nothing but
// the idle workers of worker.go and the emptied scratch of scratch.go, so
// any number may run at once, each on its own goroutine. The gonosim lint keeps simulation packages from starting
// goroutines of their own.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// TimeMax is the "never" horizon used by open-ended rate windows
// (Resource.SetRate). It is far enough below the int64 ceiling that
// adding durations to it cannot overflow.
const TimeMax = Time(1) << 61

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Micros reports t as fractional microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds reports t as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports d as fractional microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Seconds reports d as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (t Time) String() string     { return fmt.Sprintf("%.3fus", t.Micros()) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// FromSeconds converts fractional seconds to a Duration, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Duration { return Duration(s*1e9 + 0.5) }

// FromMicros converts fractional microseconds to a Duration.
func FromMicros(us float64) Duration { return Duration(us*1e3 + 0.5) }

// TransferTime is the classic alpha-beta cost: the time to move n bytes at
// bw bytes/second after a fixed startup cost alpha.
func TransferTime(alpha Duration, n int, bw float64) Duration {
	if bw <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return alpha + FromSeconds(float64(n)/bw)
}

// An event is a scheduled callback. Events with equal fire times execute in
// the order they were scheduled (seq) unless a Scheduler (sched.go) picks
// a different serialization of the same-time frontier.
//
// The events of the message path fire a closure made once per object — a
// process's wake, a mailbox's arrival, a gauge's decrement — so scheduling
// one allocates nothing. The record stays at four fields of one word on
// purpose: that is the most the compiler will keep in registers, and a
// fifth (an operand, say) doubles the frames of pop and nextEvent and
// turns every move of an event into a memory copy. A mailbox therefore
// keeps the items on the wire itself and its arrival event finds its own by
// seq.
type event struct {
	at   Time
	seq  uint64
	on   *label // what the event acts on, for Scheduler frontiers; nil = "ext"
	fire func()
}

// A Key names a piece of shared state — a process, mailbox, counter, gauge
// or resource — by its kind and name, for Scheduler frontiers and step
// footprints; the zero Key is "ext", the conservative label of events
// scheduled through Schedule/After. Keys compare with ==: identity is the
// name, never the object, because objects are built afresh on every run
// (and in another order on another schedule) while their names stay put,
// and two objects of one kind that share a name are one piece of state to
// an observer.
type Key struct {
	kind labelKind
	name string
}

type labelKind uint8

const (
	kindExt labelKind = iota
	kindProc
	kindMailbox
	kindCounter
	kindGauge
	kindResource
)

var kindPrefix = [...]string{
	kindProc:     "proc:",
	kindMailbox:  "mbox:",
	kindCounter:  "ctr:",
	kindGauge:    "gauge:",
	kindResource: "res:",
}

// String renders the key as "kind:name" ("proc:rank0", "gauge:node0.mem"),
// or "ext".
func (k Key) String() string {
	if k.kind == kindExt {
		return "ext"
	}
	return kindPrefix[k.kind] + k.name
}

// Ext reports whether k is the "ext" key of an event scheduled through
// Schedule/After, whose closure may touch anything.
func (k Key) Ext() bool { return k.kind == kindExt }

// Compare orders keys by kind, then name: the order of a footprint.
func (k Key) Compare(o Key) int {
	if k.kind != o.kind {
		return int(k.kind) - int(o.kind)
	}
	return strings.Compare(k.name, o.name)
}

// A label is the Key every process, mailbox, counter, gauge and resource
// embeds; events and footprint notes point at it.
type label Key

// key returns the label's Key; a nil label is "ext".
func (l *label) key() Key {
	if l == nil {
		return Key{}
	}
	return Key(*l)
}

// Engine is a discrete-event simulation. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   eventQueue
	procs    []*Proc
	finished int
	started  bool
	failure  error
	fired    int64 // events executed, for Stats

	// firing is the seq of the event whose callback is running: the operand
	// the four-word event record has no room for. drive, the one place an
	// event fires, is its only writer; Mailbox.arrive, which must run as the
	// event PutAt scheduled and never be called directly, is its only reader
	// and panics if no item went on the wire under that seq.
	firing uint64

	// Run-loop state: the process the last drive woke (see drive), which
	// Run resumes unless it is the one that was driving, how many drives
	// ended each way, and how the simulation ended.
	next      *Proc
	switches  int64
	selfWakes int64
	ended     bool
	endErr    error
	endPanic  interface{}

	// Verification hooks (see check.go): every resource and mailbox ever
	// created on the engine, an optional observer of clock advances, and
	// an optional renderer for leaked mailbox items.
	resources []*Resource
	mailboxes []*Mailbox
	watcher   ClockWatcher
	describe  func(interface{}) string

	// Where the objects bound to the engine come from (slab.go).
	procSlab     slab[Proc]
	resourceSlab slab[Resource]
	mailboxSlab  slab[Mailbox]
	counterSlab  slab[Counter]
	gaugeSlab    slab[Gauge]

	// Scheduler seam (see sched.go): an optional strategy for ordering
	// same-time events, and per-step footprint collection state used when
	// the strategy also observes steps.
	sched    Scheduler
	obs      StepObserver
	frontier []EventInfo // scratch for nextEvent, reused across steps; Pick may not retain it
	collect  bool
	stepOpen bool
	stepSeq  uint64
	stepOn   *label
	stepAt   Time
	foot     []*label
	footKeys []Key // scratch for flushStep, reused across steps like frontier
	spawned  []uint64
}

// NewEngine returns an empty simulation. Its queue and step scratch come
// from the free list of scratch.go when a finished engine left some.
func NewEngine() *Engine {
	e := &Engine{}
	e.takeScratch()
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated process. Its methods must only be called from the
// process body itself, not from a goroutine the body started.
type Proc struct {
	label
	eng   *Engine
	id    int
	fn    func(*Proc)
	w     *worker       // the coroutine running fn, from Run until the body has ended
	fire  func()        // the process's wake event: every sleep and release schedules this one closure
	recv  mailWaiter    // its pending Mailbox.Get and
	ctr   counterWaiter // its pending Counter.WaitGE; a process waits on one thing at a time
	state procState     // what the proc is blocked on, for diagnostics
	done  bool
}

// procState records what a process is doing as a kind plus operands, so
// the blocking paths format nothing; String renders it for the deadlock
// report.
type procState struct {
	kind stateKind
	n, m int64  // time or duration; counter threshold and value
	obj  string // mailbox or counter name
	what string // receive description; a receive by value is described by the waiter, if a report asks
}

type stateKind uint8

const (
	stNotStarted stateKind = iota
	stRunning
	stSleepUntil
	stSleeping
	stYielding
	stReceiving
	stCounter
	stFinished
)

func (s procState) String() string {
	switch s.kind {
	case stNotStarted:
		return "not started"
	case stRunning:
		return "running"
	case stSleepUntil:
		return fmt.Sprintf("sleeping until %v", Time(s.n))
	case stSleeping:
		return fmt.Sprintf("sleeping %v", Duration(s.n))
	case stYielding:
		return "yielding"
	case stReceiving:
		return fmt.Sprintf("receiving %s from mailbox %s", s.what, s.obj)
	case stCounter:
		return fmt.Sprintf("waiting for counter %s >= %d (now %d)", s.obj, s.n, s.m)
	case stFinished:
		return "finished"
	}
	panic(fmt.Sprintf("sim: unknown process state %d", s.kind))
}

// ID returns the process's spawn index (0-based).
func (p *Proc) ID() int { return p.id }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Spawn registers a process to run when Engine.Run is called. fn runs as a
// coroutine of Run's goroutine; it must interact with virtual time only
// through p's methods and sim types bound to the same engine. A
// runtime.Goexit in fn — a t.Fatal, say — ends Run's goroutine (see Run).
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	if e.started {
		panic("sim: Spawn after Run")
	}
	p := e.procSlab.new(Proc{
		label: label{kind: kindProc, name: name},
		eng:   e,
		id:    len(e.procs),
		fn:    fn,
	})
	p.fire = func() { e.wake(p) }
	e.procs = append(e.procs, p)
	return p
}

// ErrDeadlock is wrapped by the error Run returns when every process is
// blocked with no pending events.
var ErrDeadlock = errors.New("sim: deadlock")

// Run executes the simulation until every process has returned. It returns
// a deadlock error (wrapping ErrDeadlock) if processes remain blocked with
// no pending events, or the panic value if a process panicked. A panic
// raised by engine-side code — an event callback, a Scheduler, a
// ClockWatcher — is re-raised here, on the caller's goroutine.
//
// Process bodies run as coroutines of the calling goroutine, so a body that
// calls runtime.Goexit ends that goroutine, deferred calls and all: a
// t.Fatal in a rank body fails its test there and then, as t.FailNow
// requires, instead of surfacing as the deadlock of the ranks it left
// waiting. The process is counted finished first; the others stay parked.
// For the same reason Run must not be called from a goroutine locked to its
// OS thread (a coroutine may only be resumed under the thread lock it was
// created under, and workers outlive their engine).
func (e *Engine) Run() error {
	if e.started {
		return errors.New("sim: Run called twice")
	}
	e.started = true

	// Give every process a worker; its start event makes it the one to
	// resume, serializing startup deterministically.
	for _, p := range e.procs {
		p.w = startWorker(p)
		e.schedule(e.now, &p.label, p.fire)
	}

	// Fire events until the first process is to run. From then on the loop
	// runs on the stack of whichever process stops (drive), and this
	// goroutine only carries control from the one that parked to the one it
	// woke.
	e.drive(nil)
	for !e.ended {
		p := e.next
		p.w.resume()
		if p.done {
			p.w.release()
			p.w = nil
		}
	}
	if e.endPanic != nil {
		panic(e.endPanic)
	}
	if e.endErr == nil {
		e.giveScratch()
	}
	return e.endErr
}

// drive is the event loop. It runs on the stack of whoever just stopped — a
// process parking in block (self), a process finishing in runProc, or Run
// at the start (self nil for both) — and fires events until one wakes a
// process (e.next) or the simulation ends. Nothing else is running then, so
// events and processes stay strictly serialized. When the process woken is
// self the result is true and it just carries on, with no switch at all;
// otherwise the caller yields to Run, which resumes e.next: two coroutine
// switches.
//
// A panic below this frame (event callback, Scheduler.Pick, ClockWatcher,
// StepObserver) is not the driving process's fault: it is caught here and
// handed to Run to re-raise, rather than unwinding into the process body.
func (e *Engine) drive(self *Proc) (resumed bool) {
	e.next = nil
	defer func() {
		if r := recover(); r != nil {
			e.end(nil, r)
			resumed = false
		}
	}()
	for e.next == nil {
		e.flushStep() // the previous step is complete: report it
		if e.failure != nil {
			e.end(e.failure, nil)
			return false
		}
		if e.events.n == 0 {
			if e.finished == len(e.procs) {
				e.end(nil, nil)
			} else {
				e.end(e.deadlockError(), nil)
			}
			return false
		}
		ev := e.nextEvent()
		if now := e.now; ev.at != now {
			if ev.at < now {
				panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", ev.at, now))
			}
			if e.watcher != nil {
				e.watcher(now, ev.at)
			}
			e.now = ev.at
		}
		e.beginStep(ev)
		e.fired++
		e.firing = ev.seq
		ev.fire() // wakes at most one process
	}
	if e.next == self {
		e.selfWakes++
		return true
	}
	e.switches++
	return false
}

// end records how the simulation ended, for Run to find once the caller has
// yielded to it.
func (e *Engine) end(err error, panicked interface{}) {
	e.ended = true
	e.endErr, e.endPanic = err, panicked
}

// Stats reports the engine's execution counters.
type Stats struct {
	// Events is the number of events executed so far.
	Events int64
	// Processes is the number of spawned processes; Finished of them have
	// returned.
	Processes, Finished int
	// Now is the current virtual time.
	Now Time

	// Where the loop's wall time goes. Each is a plain count kept off the
	// per-event path or worth one increment there, and each is a function
	// of the simulation alone: the same run gives the same figures.
	//
	// Switches is the number of times the event loop stopped because an
	// event woke a process other than the one firing it (or with none
	// firing: at the start, and after a process has finished): control
	// then crosses to it by coroutine switch. SelfWakes is the number of
	// times the process woken was the one firing the events, which costs
	// nothing. Times is the number of distinct fire times the queue opened
	// a bucket for (a time that drains and is scheduled again counts
	// again); Events/Times is how many pops a heap operation is shared
	// between. PeakPending is the most events pending at once.
	Switches, SelfWakes int64
	Times               int64
	PeakPending         int
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:    e.fired,
		Processes: len(e.procs),
		Finished:  e.finished,
		Now:       e.Now(),

		Switches:    e.switches,
		SelfWakes:   e.selfWakes,
		Times:       e.events.opened,
		PeakPending: e.events.peak,
	}
}

// runProc runs p's body on the calling worker and counts it finished
// however it ends: by returning, by a panic, which becomes the engine's
// failure, or by runtime.Goexit, which goes on to unwind the worker and
// then Run's goroutine.
func (e *Engine) runProc(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q (id %d) panicked: %v\n%s",
					p.name, p.id, r, debug.Stack())
			}
		}
		p.done = true
		p.state = procState{kind: stFinished}
		e.finished++
		e.drive(nil)
	}()
	p.fn(p)
}

// schedule enqueues fire to run at time at (>= now), labelled with what it
// acts on for Scheduler frontiers (nil is the conservative "ext": a
// Scheduler must assume the event touches anything), and returns the
// event's sequence number. When a step is open the new event is recorded as
// spawned by it, establishing the causal edge DPOR needs.
func (e *Engine) schedule(at Time, on *label, fire func()) uint64 {
	e.seq++
	if e.stepOpen {
		e.spawned = append(e.spawned, e.seq)
	}
	e.events.push(event{at: at, seq: e.seq, on: on, fire: fire})
	return e.seq
}

// Schedule enqueues fire to run at virtual time at (clamped to now). fire
// executes inside the event loop, between processes: it must not block,
// and may wake processes only through counters and mailboxes.
func (e *Engine) Schedule(at Time, fire func()) {
	e.schedule(max(at, e.now), nil, fire)
}

// After enqueues fire to run d (>= 0) from now.
func (e *Engine) After(d Duration, fire func()) {
	if d < 0 {
		panic("sim: negative After")
	}
	e.schedule(e.now+Time(d), nil, fire)
}

// wake makes p the process to run when the drive that fired this event
// returns, which ends the drive: p itself if it is the one driving, which
// resumes by returning from the loop, otherwise through Run.
func (e *Engine) wake(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	// A woken process runs inside the current step, so everything its
	// rank-local state does is attributed to the step via its proc key.
	e.note(&p.label)
	p.state = procState{kind: stRunning}
	e.next = p
}

// block parks the calling process until something wakes it. The process
// fires the pending events itself, on its own stack, and yields to Run only
// once one of them has woken another process or ended the simulation.
func (e *Engine) block(p *Proc, state procState) {
	p.state = state
	if !e.drive(p) {
		p.w.yield(struct{}{})
	}
}

// WaitUntil blocks the process until virtual time t. If t is not after the
// current time it returns immediately without yielding.
func (p *Proc) WaitUntil(t Time) {
	e := p.eng
	if t <= e.now {
		return
	}
	e.schedule(t, &p.label, p.fire)
	e.block(p, procState{kind: stSleepUntil, n: int64(t)})
}

// Sleep blocks the process for a span of virtual time. Sleep models local
// work (compute, memory copies whose cost was computed up front).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.eng
	e.schedule(e.now+Time(d), &p.label, p.fire)
	e.block(p, procState{kind: stSleeping, n: int64(d)})
}

// Yield reschedules the process behind every event already pending at the
// current time, providing a deterministic interleaving point.
func (p *Proc) Yield() {
	e := p.eng
	e.schedule(e.now, &p.label, p.fire)
	e.block(p, procState{kind: stYielding})
}

func (e *Engine) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "at t=%v: %d of %d processes blocked forever:\n",
		e.Now(), len(e.procs)-e.finished, len(e.procs))
	blocked := make([]*Proc, 0, len(e.procs))
	for _, p := range e.procs {
		if !p.done {
			blocked = append(blocked, p)
		}
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].id < blocked[j].id })
	for _, p := range blocked {
		state := p.state
		if w := &p.recv; state.kind == stReceiving && w.by != nil {
			state.what = w.by.Describe(w.ctx, w.src, w.tag)
		}
		fmt.Fprintf(&b, "  %s: %s\n", p.name, state)
	}
	return fmt.Errorf("%w %s", ErrDeadlock, b.String())
}
