package sim

import (
	"cmp"
	"slices"
)

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
	wire    []wireItem // wire[head:] is on the wire: put, not yet arrived
	head    int
	items   []mailItem
	waiters []*mailWaiter
	arrival func() // arrive, the one callback every PutAt schedules
}

// A wireItem is an item PutAt has sent on its way, under the sequence
// number of the event that will deliver it. PutAt appends under increasing
// sequence numbers, so the wire is sorted by seq and an arrival finds its
// item by binary search whatever the order of arrival; one that arrives
// before an item put earlier leaves a hole (gone), dropped when it reaches
// the front. What a delivery costs therefore does not depend on how many
// items are in flight: 1-3 in the ring and hierarchical schedules, N-1 per
// mailbox where every send is posted up front (a direct alltoall).
type wireItem struct {
	seq  uint64
	v    interface{}
	gone bool
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
	m := e.mailboxSlab.new(Mailbox{label: label{kind: kindMailbox, name: name}, eng: e})
	m.arrival = m.arrive
	e.mailboxes = append(e.mailboxes, m)
	return m
}

// Name returns the mailbox's diagnostic name.
func (m *Mailbox) Name() string { return m.name }

// PutAt deposits v into the mailbox at virtual time at (clamped to now).
// The caller does not block; delivery happens via a scheduled event so the
// depositor can keep computing while the message is "on the wire".
func (m *Mailbox) PutAt(at Time, v interface{}) {
	e := m.eng
	at = max(at, e.now)
	// Reclaim the delivered front before the array would grow, and only once
	// it is at least half of it: each slide is paid for by as many arrivals.
	if len(m.wire) == cap(m.wire) && m.head > 0 && m.head >= len(m.wire)/2 {
		n := copy(m.wire, m.wire[m.head:])
		clear(m.wire[n:])
		m.wire, m.head = m.wire[:n], 0
	}
	m.wire = append(m.wire, wireItem{seq: e.schedule(at, &m.label, m.arrival), v: v})
}

// arrive runs as an event at an item's arrival time: the item is the
// one that went on the wire under the firing event's sequence number.
func (m *Mailbox) arrive() {
	seq := m.eng.firing
	live := m.wire[m.head:]
	i := 0
	if len(live) > 0 && live[0].seq != seq { // not the oldest in flight
		i, _ = slices.BinarySearchFunc(live, seq, func(w wireItem, seq uint64) int { return cmp.Compare(w.seq, seq) })
	}
	if i == len(live) || live[i].seq != seq || live[i].gone {
		panic("sim: mailbox " + m.name + " has nothing on the wire for this arrival")
	}
	v := live[i].v
	live[i].v, live[i].gone = nil, true
	for m.head < len(m.wire) && m.wire[m.head].gone {
		m.head++
	}
	if m.head == len(m.wire) { // nothing in flight: the next put starts the array over
		m.wire, m.head = m.wire[:0], 0
	}
	m.deposit(v)
}

// deposit hands an arrived item to the first waiting matcher (FIFO)
// or queues it; at most one process is woken, preserving determinism.
func (m *Mailbox) deposit(v interface{}) {
	m.eng.note(&m.label)
	for _, w := range m.waiters {
		if !w.found && w.accepts(v) {
			w.found = true
			w.got = v
			m.removeWaiter(w)
			m.eng.wake(w.p)
			return
		}
	}
	m.items = append(m.items, mailItem{at: m.eng.Now(), v: v})
}

func (m *Mailbox) removeWaiter(target *mailWaiter) {
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
	e.note(&m.label)
	got, ok := m.take(w)
	if !ok {
		m.waiters = append(m.waiters, w)
		e.block(p, waiting)
		got = w.got
	}
	*w = mailWaiter{} // drop the item and the predicate
	return got
}

// take removes and returns the first queued item w accepts. The slot
// it vacates at the tail is cleared, so the mailbox does not keep the item
// — in payload runs a cloned message buffer — alive until a later deposit
// overwrites it. Where every send is posted up front the queue is as deep
// as the wire, so the scan calls the matcher directly: one indirect call an
// item, as the predicate costs, rather than accepts' two.
func (m *Mailbox) take(w *mailWaiter) (interface{}, bool) {
	i := -1
	if by := w.by; by != nil {
		match, ctx, src, tag := by.Match, w.ctx, w.src, w.tag
		for j := range m.items {
			if match(m.items[j].v, ctx, src, tag) {
				i = j
				break
			}
		}
	} else {
		for j := range m.items {
			if w.match(m.items[j].v) {
				i = j
				break
			}
		}
	}
	if i < 0 {
		return nil, false
	}
	v := m.items[i].v
	m.items = slices.Delete(m.items, i, i+1)
	return v, true
}

// PendingItems returns the delivered-but-unclaimed items in arrival order.
// Teardown audits use it to attribute leaked messages to their senders.
func (m *Mailbox) PendingItems() []interface{} {
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
	m.owner = label
}
