// Package trace records simulated communication events on the global
// virtual timeline and renders them as an ASCII Gantt chart, standing in
// for the TAU trace visualizations in the paper (its Figure 2).
//
// Nothing in the package is synchronised: a Recorder, like the mpi.World
// that records into it, belongs to one goroutine at a time, and worlds that
// run side by side each need their own.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mha/internal/sim"
)

// Category classifies an event for rendering.
type Category string

// Categories used by the MPI runtime and collectives.
const (
	CatSend    Category = "send"    // point-to-point send (CPU side)
	CatRecv    Category = "recv"    // point-to-point receive / wait for data
	CatHCA     Category = "hca"     // transfer carried by a network adapter
	CatCopyIn  Category = "copyin"  // copy into shared memory
	CatCopyOut Category = "copyout" // copy out of shared memory
	CatCompute Category = "compute" // local computation
	CatWait    Category = "wait"    // waiting on a request or counter
	CatPhase   Category = "phase"   // algorithm phase marker
	CatFault   Category = "fault"   // rail fault window / failover decision
	CatJob     Category = "job"     // multi-tenant job admission / completion
)

// Event is one timed interval on some rank's timeline.
type Event struct {
	Rank  int
	Cat   Category
	Name  string
	Start sim.Time
	End   sim.Time
	Peer  int // peer rank, or -1
	Bytes int
}

// Recorder accumulates events. The zero value is unusable; use New. A nil
// *Recorder is a valid no-op sink, so tracing can stay compiled into hot
// paths guarded only by a nil check.
type Recorder struct {
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records an event. Add on a nil recorder is a no-op.
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	if r.events == nil {
		// A 4-rank collective records 30 to 40 events; doubling up to
		// that from one costs seven allocations and twice the bytes.
		r.events = make([]Event, 0, 64)
	}
	r.events = append(r.events, ev)
}

// Events returns a copy of all recorded events sorted by start time, then
// rank, preserving insertion order among ties.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.events))
	for i, k := range r.order() {
		out[i] = r.events[k]
	}
	return out
}

// order returns the indices of the events in Events() order: sorting
// indices by (Start, Rank, index) is a stable sort without moving events.
func (r *Recorder) order() []int32 {
	evs := r.events
	idx := make([]int32, len(evs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(evs[a].Start, evs[b].Start); c != 0 {
			return c
		}
		if c := cmp.Compare(evs[a].Rank, evs[b].Rank); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Diff compares r's events with o's in insertion order. It returns -1 when
// the two recorded the same sequence; otherwise the index of the first
// event at which they part, with each recorder's event there (nil past the
// end of its sequence). Equal sequences have equal Hashes, so Diff is the
// stricter comparison, and the cheaper one: nothing is sorted. A nil
// recorder has no events.
func (r *Recorder) Diff(o *Recorder) (at int, a, b *Event) {
	var ra, rb []Event
	if r != nil {
		ra = r.events
	}
	if o != nil {
		rb = o.events
	}
	n := min(len(ra), len(rb))
	for i := range n {
		if ra[i] != rb[i] {
			return i, &ra[i], &rb[i]
		}
	}
	switch {
	case len(ra) > n:
		return n, &ra[n], nil
	case len(rb) > n:
		return n, nil, &rb[n]
	}
	return -1, nil, nil
}

// Reset discards all events.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
}

// glyphs maps categories to single-character lane fills.
var glyphs = map[Category]byte{
	CatSend:    'S',
	CatRecv:    'R',
	CatHCA:     'H',
	CatCopyIn:  'I',
	CatCopyOut: 'O',
	CatCompute: 'C',
	CatWait:    '.',
	CatPhase:   '|',
	CatFault:   'X',
	CatJob:     'J',
}

// Timeline renders the recorded events as an ASCII Gantt chart with one
// lane per rank, width columns wide. Later events overwrite earlier ones in
// a cell; CatWait never overwrites anything else.
func (r *Recorder) Timeline(width int) string {
	evs := r.Events()
	if len(evs) == 0 {
		return "(no events)\n"
	}
	if width < 10 {
		width = 10
	}
	maxRank := 0
	var tEnd sim.Time
	for _, ev := range evs {
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
		if ev.End > tEnd {
			tEnd = ev.End
		}
	}
	if tEnd == 0 {
		tEnd = 1
	}
	lanes := make([][]byte, maxRank+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(t sim.Time) int {
		c := int(int64(t) * int64(width) / int64(tEnd))
		if c >= width {
			c = width - 1
		}
		return c
	}
	for _, ev := range evs {
		g, ok := glyphs[ev.Cat]
		if !ok {
			g = '?'
		}
		c0, c1 := col(ev.Start), col(ev.End)
		for c := c0; c <= c1; c++ {
			if g == '.' && lanes[ev.Rank][c] != ' ' {
				continue // waits don't overwrite real work
			}
			lanes[ev.Rank][c] = g
		}
	}
	var b strings.Builder
	end := fmt.Sprint(tEnd)
	// An end label wider than the chart runs past its right edge.
	fmt.Fprintf(&b, "t=0%s%s\n", strings.Repeat(" ", max(width-len(end), 0)), end)
	for rank, lane := range lanes {
		fmt.Fprintf(&b, "rank %3d |%s|\n", rank, lane)
	}
	b.WriteString("legend: S=send R=recv H=HCA transfer I=shm copy-in O=shm copy-out C=compute X=fault J=job .=wait\n")
	return b.String()
}

// Listing renders events as a readable per-event log, one line each.
func (r *Recorder) Listing() string {
	var b strings.Builder
	for _, ev := range r.Events() {
		peer := ""
		if ev.Peer >= 0 {
			peer = fmt.Sprintf(" peer=%d", ev.Peer)
		}
		size := ""
		if ev.Bytes > 0 {
			size = fmt.Sprintf(" %dB", ev.Bytes)
		}
		fmt.Fprintf(&b, "[%12v %12v] rank %3d %-8s %s%s%s\n",
			ev.Start, ev.End, ev.Rank, ev.Cat, ev.Name, peer, size)
	}
	return b.String()
}
