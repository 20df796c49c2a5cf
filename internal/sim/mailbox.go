package sim

import "fmt"

// A Mailbox is an in-order message queue with virtual-time delivery: items
// deposited with PutAt become visible at their arrival time, and consumers
// block in Get until an item matching their predicate arrives. The mini-MPI
// runtime builds tag matching and unexpected-message queues on top of one
// mailbox per destination rank.
type Mailbox struct {
	label
	eng     *Engine
	owner   string // attribution label for teardown audits ("" = unowned)
	items   []mailItem
	waiters []*mailWaiter
	arrived int64 // total items ever deposited
}

type mailItem struct {
	at Time
	v  interface{}
}

type mailWaiter struct {
	p     *Proc
	match func(interface{}) bool
	got   interface{}
	found bool
}

// NewMailbox creates a named mailbox bound to the engine.
func (e *Engine) NewMailbox(name string) *Mailbox {
	m := &Mailbox{label: label{kind: kindMailbox, name: name}, eng: e}
	e.mu.Lock()
	e.mailboxes = append(e.mailboxes, m)
	e.mu.Unlock()
	return m
}

// PutAt deposits v into the mailbox at virtual time at (clamped to now).
// The caller does not block; delivery happens via a scheduled event so the
// depositor can keep computing while the message is "on the wire".
func (m *Mailbox) PutAt(at Time, v interface{}) {
	e := m.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if now := e.Now(); at < now {
		at = now
	}
	e.scheduleLabeledLocked(at, &m.label, func() { m.depositLocked(v) })
}

// depositLocked runs as an event at the arrival time: hand the item to the
// first waiting matcher (FIFO) or queue it. Caller holds the engine lock;
// at most one process is woken, preserving determinism.
func (m *Mailbox) depositLocked(v interface{}) {
	m.eng.noteLocked(&m.label)
	m.arrived++
	for _, w := range m.waiters {
		if !w.found && w.match(v) {
			w.found = true
			w.got = v
			m.removeWaiterLocked(w)
			m.eng.wakeLocked(w.p)
			return
		}
	}
	m.items = append(m.items, mailItem{at: m.eng.Now(), v: v})
}

func (m *Mailbox) removeWaiterLocked(target *mailWaiter) {
	for i, w := range m.waiters {
		if w == target {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}

// Get blocks the calling process until an item matching match is available,
// removes it from the mailbox, and returns it. Items are matched in arrival
// order. what describes the receive in a deadlock report.
func (m *Mailbox) Get(p *Proc, what string, match func(interface{}) bool) interface{} {
	return m.get(p, procState{kind: stReceiving, what: what, obj: m.name}, match)
}

// GetLazy is Get for callers on a hot path: the description is rendered
// only if a deadlock report has to print it.
func (m *Mailbox) GetLazy(p *Proc, what fmt.Stringer, match func(interface{}) bool) interface{} {
	return m.get(p, procState{kind: stReceiving, lazy: what, obj: m.name}, match)
}

func (m *Mailbox) get(p *Proc, waiting procState, match func(interface{}) bool) interface{} {
	e := m.eng
	if p.eng != e {
		panic("sim: Get across engines")
	}
	e.mu.Lock()
	e.noteLocked(&m.label)
	for i, it := range m.items {
		if match(it.v) {
			m.items = append(m.items[:i], m.items[i+1:]...)
			e.mu.Unlock()
			return it.v
		}
	}
	w := &p.recv
	*w = mailWaiter{p: p, match: match}
	m.waiters = append(m.waiters, w)
	e.block(p, waiting)
	got := w.got
	*w = mailWaiter{} // drop the item and the predicate
	return got
}

// TryGet removes and returns the first queued item matching match without
// blocking. It returns nil, false when nothing matches.
func (m *Mailbox) TryGet(match func(interface{}) bool) (interface{}, bool) {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	m.eng.noteLocked(&m.label)
	for i, it := range m.items {
		if match(it.v) {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return it.v, true
		}
	}
	return nil, false
}

// Pending reports how many delivered-but-unclaimed items are queued.
func (m *Mailbox) Pending() int {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	return len(m.items)
}

// PendingItems returns the delivered-but-unclaimed items in arrival order.
// Teardown audits use it to attribute leaked messages to their senders.
func (m *Mailbox) PendingItems() []interface{} {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	out := make([]interface{}, len(m.items))
	for i, it := range m.items {
		out[i] = it.v
	}
	return out
}

// SetOwner labels the mailbox with the party responsible for draining it
// (a rank, a job, a scheduler). Quiescence audits report the label when
// the mailbox leaks, so concurrent owners stay distinguishable.
func (m *Mailbox) SetOwner(label string) {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	m.owner = label
}

// Owner returns the attribution label set with SetOwner ("" = unowned).
func (m *Mailbox) Owner() string {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	return m.owner
}

// Arrived reports the total number of items ever delivered.
func (m *Mailbox) Arrived() int64 {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	return m.arrived
}
