package sim

// eventQueue holds the pending events in (at, seq) order as one FIFO per
// distinct fire time — a bucket — under a 4-ary min-heap of the buckets
// themselves. The engine hands out sequence numbers in increasing order, so
// within a bucket the order of arrival is the order of firing and a push is
// an append; almost every pop (96 % on the paper-scale runs, where some two
// dozen events share each instant) finds the head bucket still open and is a
// slice read, and the heap — a few dozen times, not a few thousand events —
// is touched once per distinct time. A Scheduler's frontier is the head
// bucket as it stands (head, remove).
//
// The zero value is an empty queue. Events are held by value, so pushing one
// allocates nothing once its bucket has grown; a drained bucket goes on a
// free list with every slot cleared and is the next one opened.
type eventQueue struct {
	times  []*bucket        // min-heap on at, four children a node; times are distinct
	byTime map[Time]*bucket // the buckets in times
	last   *bucket          // where the last push went: runs of pushes share a time
	free   []*bucket
	n      int // events pending

	opened int64 // buckets opened and most events pending at once, for Stats
	peak   int
}

// A bucket is the events pending at one time: events[head:], by ascending
// seq. The slots before head are already cleared.
type bucket struct {
	at     Time
	head   int
	events []event
}

// push adds ev, whose seq must be above that of every event still pending
// at ev.at.
func (q *eventQueue) push(ev event) {
	b := q.last
	if b == nil || b.at != ev.at {
		if b = q.byTime[ev.at]; b == nil {
			b = q.open(ev.at)
		}
		q.last = b
	}
	b.events = append(b.events, ev)
	if q.n++; q.n > q.peak {
		q.peak = q.n
	}
}

// open adds an empty bucket for time at, which must have none.
func (q *eventQueue) open(at Time) *bucket {
	var b *bucket
	if n := len(q.free); n > 0 {
		b, q.free = q.free[n-1], q.free[:n-1]
	} else {
		// Room for four from the start: outside the paper-scale runs most
		// times hold a few events, and growing to four by doubling is three
		// allocations.
		b = &bucket{events: make([]event, 0, 4)}
	}
	b.at = at
	if q.byTime == nil {
		q.byTime = make(map[Time]*bucket)
	}
	q.byTime[at] = b
	q.opened++

	h := append(q.times, b)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h[parent].at < at {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = b
	q.times = h
	return b
}

// head returns the events pending at the earliest time, by ascending seq:
// head()[0] is what pop returns and head()[k] what remove(k) does. The
// slice is the queue's own and is good until the next push, pop or remove.
// The queue must not be empty.
func (q *eventQueue) head() []event {
	b := q.times[0]
	return b.events[b.head:]
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	b := q.times[0]
	ev := b.events[b.head]
	b.events[b.head] = event{} // release the closure
	b.head++
	q.n--
	if b.head == len(b.events) {
		q.closeHead()
	}
	return ev
}

// remove removes and returns head()[k], leaving the others in order: the
// k events ahead of it move up one slot and it is popped from the front.
func (q *eventQueue) remove(k int) event {
	live := q.head()
	ev := live[k]
	copy(live[1:], live[:k])
	live[0] = ev
	return q.pop()
}

// closeHead takes the drained head bucket off the heap and puts it on the
// free list.
func (q *eventQueue) closeHead() {
	h := q.times
	b := h[0]
	delete(q.byTime, b.at)
	if q.last == b {
		q.last = nil
	}
	b.head, b.events = 0, b.events[:0]
	q.free = append(q.free, b)

	n := len(h) - 1
	tail := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			least := first
			for c := first + 1; c < first+4 && c < n; c++ {
				if h[c].at < h[least].at {
					least = c
				}
			}
			if h[least].at > tail.at {
				break
			}
			h[i] = h[least]
			i = least
		}
		h[i] = tail
	}
	q.times = h
}
