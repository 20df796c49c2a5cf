package sim

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). It holds
// events by value, so pushing one allocates nothing once the backing array
// has grown; seq is unique, so the pop order is a total order independent
// of the heap's shape. Four children per node halve the depth of a binary
// heap, and a pop's extra comparisons stay within one or two cache lines.
type eventQueue []event

// before reports whether a fires ahead of b.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure
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
				if h[c].before(&h[least]) {
					least = c
				}
			}
			if !h[least].before(&last) {
				break
			}
			h[i] = h[least]
			i = least
		}
		h[i] = last
	}
	*q = h
	return top
}
