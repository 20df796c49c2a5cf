package sim

import "slices"

// A Mailbox is an in-order message queue with virtual-time delivery: items
// deposited with PutAt travel until their arrival time and become visible
// then, and consumers block in Get until an item matching their predicate
// arrives, or in GetMatch until one matching a (context, source, tag) value
// does. The mini-MPI runtime builds tag matching and unexpected-message
// queues on top of one mailbox per destination rank.
type Mailbox struct {
	label
	eng     *Engine
	owner   string     // attribution label for teardown audits ("" = unowned)
	wire    []wireItem // on the wire: put, not yet arrived
	items   []mailItem
	waiters []*mailWaiter
	arrived int64  // total items ever deposited
	arrive  func() // arriveLocked, the one callback every PutAt schedules
}

// A wireItem is an item PutAt has sent on its way, under the sequence
// number of the event that will deliver it.
type wireItem struct {
	seq uint64
	v   interface{}
}

type mailItem struct {
	at Time
	v  interface{}
}

// A Matcher is how a layer receives its mailbox items by value rather than
// by predicate: a receive names three ints — a context, a source and a tag,
// in the MPI runtime's terms — and Match says whether an item answers them.
// Both functions are package-level, so a receive allocates nothing and
// formats nothing; Describe renders it only if a deadlock report lists it.
type Matcher struct {
	Match    func(item interface{}, ctx, src, tag int) bool
	Describe func(ctx, src, tag int) string
}

// A mailWaiter is a process's pending receive: by predicate (match) or by
// value (by and the three ints).
type mailWaiter struct {
	p             *Proc
	match         func(interface{}) bool
	by            *Matcher
	ctx, src, tag int
	got           interface{}
	found         bool
}

func (w *mailWaiter) accepts(v interface{}) bool {
	if w.by != nil {
		return w.by.Match(v, w.ctx, w.src, w.tag)
	}
	return w.match(v)
}

// NewMailbox creates a named mailbox bound to the engine.
func (e *Engine) NewMailbox(name string) *Mailbox {
	m := &Mailbox{label: label{kind: kindMailbox, name: name}, eng: e}
	m.arrive = m.arriveLocked
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
	m.wire = append(m.wire, wireItem{seq: e.scheduleLabeledLocked(at, &m.label, m.arrive), v: v})
}

// arriveLocked runs as an event at an item's arrival time: the item is the
// one that went on the wire under the firing event's sequence number. A
// mailbox has a handful of items in flight at a time and they mostly arrive
// in the order they were sent, so the scan ends at once.
func (m *Mailbox) arriveLocked() {
	seq := m.eng.firing
	for i := range m.wire {
		if m.wire[i].seq == seq {
			v := m.wire[i].v
			m.wire = slices.Delete(m.wire, i, i+1)
			m.depositLocked(v)
			return
		}
	}
	panic("sim: mailbox " + m.name + " has nothing on the wire for this arrival")
}

// depositLocked hands an arrived item to the first waiting matcher (FIFO)
// or queues it. Caller holds the engine lock; at most one process is woken,
// preserving determinism.
func (m *Mailbox) depositLocked(v interface{}) {
	m.eng.noteLocked(&m.label)
	m.arrived++
	for _, w := range m.waiters {
		if !w.found && w.accepts(v) {
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
			m.waiters = slices.Delete(m.waiters, i, i+1) // and clear the vacated slot
			return
		}
	}
}

// Get blocks the calling process until an item matching match is available,
// removes it from the mailbox, and returns it. Items are matched in arrival
// order. what describes the receive in a deadlock report.
func (m *Mailbox) Get(p *Proc, what string, match func(interface{}) bool) interface{} {
	p.recv = mailWaiter{p: p, match: match}
	return m.get(p, procState{kind: stReceiving, what: what, obj: m.name})
}

// GetMatch is Get by value: it returns the first item, in arrival order, for
// which by.Match(item, ctx, src, tag) holds. Predicate and value receives
// waiting on one mailbox are served in the order they started waiting. A
// deadlock report describes the receive with by.Describe, from the waiter.
func (m *Mailbox) GetMatch(p *Proc, by *Matcher, ctx, src, tag int) interface{} {
	p.recv = mailWaiter{p: p, by: by, ctx: ctx, src: src, tag: tag}
	return m.get(p, procState{kind: stReceiving, obj: m.name})
}

// get serves the receive the caller has just written into p.recv.
func (m *Mailbox) get(p *Proc, waiting procState) interface{} {
	e := m.eng
	if p.eng != e {
		panic("sim: Get across engines")
	}
	w := &p.recv
	e.mu.Lock()
	e.noteLocked(&m.label)
	got, ok := m.takeLocked(w)
	if ok {
		e.mu.Unlock()
	} else {
		m.waiters = append(m.waiters, w)
		e.block(p, waiting)
		got = w.got
	}
	*w = mailWaiter{} // drop the item and the predicate
	return got
}

// takeLocked removes and returns the first queued item w accepts. The slot
// it vacates at the tail is cleared, so the mailbox does not keep the item
// — in payload runs a cloned message buffer — alive until a later deposit
// overwrites it.
func (m *Mailbox) takeLocked(w *mailWaiter) (interface{}, bool) {
	for i, it := range m.items {
		if w.accepts(it.v) {
			m.items = slices.Delete(m.items, i, i+1)
			return it.v, true
		}
	}
	return nil, false
}

// TryGet removes and returns the first queued item matching match without
// blocking. It returns nil, false when nothing matches.
func (m *Mailbox) TryGet(match func(interface{}) bool) (interface{}, bool) {
	m.eng.mu.Lock()
	defer m.eng.mu.Unlock()
	m.eng.noteLocked(&m.label)
	return m.takeLocked(&mailWaiter{match: match})
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
