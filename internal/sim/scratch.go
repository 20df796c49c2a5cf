package sim

// The grow-only scratch of an engine — the event queue's heap array,
// time index and free buckets, and the Scheduler seam's frontier,
// footprint and spawned lists — reaches its working size a few dozen
// appends into a run and is empty again when the run ends. An explorer
// that builds 40 000 four-rank worlds a pass would grow it from nil every
// time, so a finished engine hands it to a package free list and
// NewEngine takes it from there, as Run does with idle workers
// (worker.go). It carries no simulation state: it goes back only from an
// engine whose queue has drained and whose run ended cleanly, with every
// slot that held a pointer cleared, and an engine that takes it sees the
// same empty queue and empty lists a new one has.

// maxIdleScratch bounds the scratch sets kept between runs: one per
// goroutine that builds engines by the thousand covers every caller.
const maxIdleScratch = 16

// A kept set holds at most maxKeptBuckets free buckets of at most
// maxKeptEvents slots each, and no heap array, frontier or footprint
// longer than maxKeptSlots: what a small world needs. A 1024-rank engine's
// larger arrays are left to the collector, so a set never holds more than
// about 160 KB whatever ran before, and a four-rank world's a few KB.
const (
	maxKeptBuckets = 64
	maxKeptEvents  = 64
	maxKeptSlots   = 256
)

// scratch is one engine's emptied buffers.
type scratch struct {
	times    []*bucket
	byTime   map[Time]*bucket
	free     []*bucket
	frontier []EventInfo
	foot     []*label
	footKeys []Key
	spawned  []uint64
}

var idleScratch = make(chan scratch, maxIdleScratch)

// takeScratch gives a new engine a kept set, if there is one.
func (e *Engine) takeScratch() {
	select {
	case s := <-idleScratch:
		e.events.times, e.events.byTime, e.events.free = s.times, s.byTime, s.free
		e.frontier, e.foot, e.footKeys, e.spawned = s.frontier, s.foot, s.footKeys, s.spawned
	default:
	}
}

// giveScratch hands the engine's buffers to the free list, or drops them
// if it is full, and leaves the engine with none. The caller has checked
// that the run ended cleanly, which leaves the queue drained.
func (e *Engine) giveScratch() {
	q := &e.events
	if q.n != 0 {
		return
	}
	var s scratch
	if cap(q.times) <= maxKeptSlots {
		s.times, s.byTime = q.times[:0], q.byTime
		clear(s.times[:cap(s.times)])
	}
	if cap(q.free) <= maxKeptSlots {
		s.free = q.free[:0]
		for _, b := range q.free {
			if len(s.free) < maxKeptBuckets && cap(b.events) <= maxKeptEvents {
				clear(b.events[:cap(b.events)])
				s.free = append(s.free, b)
			}
		}
		clear(q.free[len(s.free):cap(q.free)])
	}
	if cap(e.frontier) <= maxKeptSlots {
		s.frontier = e.frontier[:0]
		clear(s.frontier[:cap(s.frontier)])
	}
	if cap(e.foot) <= maxKeptSlots && cap(e.footKeys) <= maxKeptSlots {
		s.foot, s.footKeys = e.foot[:0], e.footKeys[:0]
		clear(s.foot[:cap(s.foot)])
		clear(s.footKeys[:cap(s.footKeys)])
	}
	if cap(e.spawned) <= maxKeptSlots {
		s.spawned = e.spawned[:0]
	}
	q.times, q.byTime, q.free, q.last = nil, nil, nil, nil
	e.frontier, e.foot, e.footKeys, e.spawned = nil, nil, nil, nil
	select {
	case idleScratch <- s:
	default:
	}
}
