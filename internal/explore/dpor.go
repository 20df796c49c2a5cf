package explore

import (
	"fmt"

	"mha/internal/sim"
)

// Dynamic partial-order reduction, stateless-search style (Flanagan &
// Godefroid): the explorer re-executes the deterministic simulation from
// scratch for every schedule, so "state" is an execution prefix, not a
// snapshot. Each execution is recorded as a sequence of steps — an event
// firing plus every process it transitively wakes until the engine
// quiesces — together with the step's shared-state footprint and the
// events it spawned. Two same-time steps with disjoint footprints
// commute, so only one order of each commuting pair needs visiting;
// race analysis over each finished execution adds backtrack choices at
// the decision points where dependent same-time steps could have been
// reordered, and sleep sets suppress re-exploration of subtrees an
// earlier sibling choice already covered.

// A step is one executed engine step of the current trace.
type step struct {
	seq    uint64
	label  sim.Key
	at     sim.Time
	foot   []sim.Key // sorted shared-state keys the step touched
	parent int       // index of the step that spawned this step's event, or -1
	point  int       // decision-point index this step was chosen at, or -1
}

// A sleepEntry is one event (with the footprint its step exhibited) whose
// subtree is already covered by an explored sibling branch.
type sleepEntry struct {
	seq uint64
	fp  []sim.Key
}

// A point is one decision: a moment where the engine offered a frontier
// of two or more co-enabled events. The driver keeps points across
// executions; they form the DFS stack of the stateless search.
type point struct {
	at       sim.Time
	frontier []sim.EventInfo
	// chosen is the frontier index taken on the most recent execution
	// through this point, and alt the search state of every index.
	chosen int
	alt    []choice
	// stepIdx locates the chosen event's step in the current trace.
	stepIdx int
	// sleepAt is the sleep set inherited when the point was first
	// reached; a backtrack candidate found sleeping here is redundant.
	sleepAt []sleepEntry
}

// A choice is the search state of one frontier index of a point: done
// once an execution has taken it, backtrack once race analysis has
// scheduled it for exploration, and — from the moment its step was
// observed — the footprint that step exhibited (needed to seed sleep
// sets on later passes).
type choice struct {
	done, backtrack, observed bool
	fp                        []sim.Key
}

// guided is the sim.Scheduler+StepObserver that drives the executions of
// one exploration: it replays the forced prefix of the shared points and
// extends them canonically.
type guided struct {
	// points[:len] is the DFS stack; points[len:cap] are the points the last
	// restart dropped, whose storage the next decision at their depth reuses.
	points []*point
	prefix int // leading points whose chosen index is forced

	steps []step
	// parentOf[seq] is 1 + the index of the step that spawned event seq,
	// 0 for an event no observed step spawned. Sequence numbers are small
	// and handed out in order, so the table is as long as the run.
	parentOf  []int
	arena     []sim.Key // the steps' footprints, copied out of engine scratch
	sleep     []sleepEntry
	nextPt    int
	pending   int // point index whose chosen step is the next observed step
	diverged  string
	redundant int64 // executions that fired a sleeping event (wasted work)
}

func newGuided() *guided {
	return &guided{pending: -1}
}

// restart readies g for the next execution of the search: the first
// prefix points are kept and forced, and the per-execution state is
// emptied in place, so one exploration grows its trace, footprint arena,
// sleep set and parent table once instead of once per replay.
func (g *guided) restart(prefix int) {
	g.points, g.prefix = g.points[:prefix], prefix
	g.steps, g.parentOf, g.arena, g.sleep = g.steps[:0], g.parentOf[:0], g.arena[:0], g.sleep[:0]
	g.nextPt, g.pending, g.diverged, g.redundant = 0, -1, "", 0
}

// Pick implements sim.Scheduler.
func (g *guided) Pick(now sim.Time, frontier []sim.EventInfo) int {
	d := g.nextPt
	g.nextPt++
	if d < g.prefix {
		// Forced prefix: the engine is deterministic, so the frontier must
		// be byte-identical to the recorded one; anything else means the
		// reduction's replay assumption broke and the run is worthless.
		pt := g.points[d]
		if !sameFrontier(pt.frontier, frontier) {
			if g.diverged == "" {
				g.diverged = fmt.Sprintf("decision %d: frontier %v diverged from recorded %v", d, frontier, pt.frontier)
			}
			if pt.chosen < len(frontier) {
				return pt.chosen
			}
			return 0
		}
		g.enterPoint(pt, d)
		return pt.chosen
	}
	// Fresh decision: canonical choice is the first frontier member not in
	// the sleep set (every member is a legal serialization; a sleeping one
	// heads a subtree an explored sibling already covers).
	c := -1
	for i := range frontier {
		if !g.sleeping(frontier[i].Seq) {
			c = i
			break
		}
	}
	if c < 0 {
		c = 0
		g.redundant++
	}
	if d != len(g.points) {
		panic(fmt.Sprintf("explore: decision %d but %d points recorded", d, len(g.points)))
	}
	pt := g.push()
	pt.reset(now, frontier, c, g.sleep)
	g.enterPoint(pt, d)
	return c
}

// push appends a point to the stack and returns it: the one the last
// restart dropped at that depth, if there is one, else a new one.
func (g *guided) push() *point {
	if n := len(g.points); n < cap(g.points) && g.points[:n+1][n] != nil {
		g.points = g.points[:n+1]
	} else {
		g.points = append(g.points, new(point))
	}
	return g.points[len(g.points)-1]
}

// reset makes pt a fresh decision over frontier that takes index chosen,
// reached with the sleep set sleep. Every field is overwritten; the slices
// keep their arrays, and so does each choice's footprint.
func (pt *point) reset(at sim.Time, frontier []sim.EventInfo, chosen int, sleep []sleepEntry) {
	pt.at, pt.chosen, pt.stepIdx = at, chosen, -1
	pt.frontier = append(pt.frontier[:0], frontier...)
	if cap(pt.alt) < len(frontier) {
		pt.alt = make([]choice, len(frontier))
	}
	pt.alt = pt.alt[:len(frontier)]
	for k := range pt.alt {
		pt.alt[k] = choice{fp: pt.alt[k].fp[:0]}
	}
	pt.alt[chosen].done = true
	pt.sleepAt = append(pt.sleepAt[:0], sleep...)
}

// enterPoint marks pt as the pending decision and moves its explored
// sibling choices into the sleep set: their subtrees from here are
// covered, so any execution that fires them next (or any backtrack that
// would re-add them) is redundant until a dependent step wakes them.
func (g *guided) enterPoint(pt *point, d int) {
	g.pending = d
	for k := range pt.alt {
		if c := &pt.alt[k]; c.done && c.observed && k != pt.chosen {
			g.sleep = append(g.sleep, sleepEntry{seq: pt.frontier[k].Seq, fp: c.fp})
		}
	}
}

func (g *guided) sleeping(seq uint64) bool {
	for _, se := range g.sleep {
		if se.seq == seq {
			return true
		}
	}
	return false
}

// ObserveStep implements sim.StepObserver.
func (g *guided) ObserveStep(info sim.StepInfo) {
	idx := len(g.steps)
	parent := -1
	if info.Seq < uint64(len(g.parentOf)) {
		parent = g.parentOf[info.Seq] - 1
	}
	for _, s := range info.Spawned {
		for uint64(len(g.parentOf)) <= s {
			g.parentOf = append(g.parentOf, 0)
		}
		g.parentOf[s] = idx + 1
	}
	n := len(g.arena)
	g.arena = append(g.arena, info.Footprint...)
	foot := g.arena[n:len(g.arena):len(g.arena)]
	ptIdx := -1
	if g.pending >= 0 {
		pt := g.points[g.pending]
		pt.stepIdx = idx
		// The chosen event's step is the same on every execution through
		// the point, and the choice outlives this execution's arena.
		if c := &pt.alt[pt.chosen]; !c.observed {
			c.observed, c.fp = true, append(c.fp, foot...)
		}
		ptIdx = g.pending
		g.pending = -1
	}
	// A sleeping event stays asleep only while every executed step is
	// independent of it; a dependent step can re-enable genuinely new
	// orders, so the entry is dropped.
	kept := g.sleep[:0]
	for _, se := range g.sleep {
		if se.seq == info.Seq {
			g.redundant++
			continue
		}
		if dependent(se.fp, foot) {
			continue
		}
		kept = append(kept, se)
	}
	g.sleep = kept
	g.steps = append(g.steps, step{
		seq: info.Seq, label: info.Label, at: info.At,
		foot: foot, parent: parent, point: ptIdx,
	})
}

// hb reports whether step i happens-before step j through the event
// creation chain: j's event was spawned by a step whose event was
// spawned by ... step i. Program order is a special case — a process
// schedules its next wake during its current step — so same-process
// steps are always creation-chained.
func (g *guided) hb(i, j int) bool {
	cur := j
	for cur > i {
		cur = g.steps[cur].parent
		if cur < 0 {
			return false
		}
	}
	return cur == i
}

// dependent reports whether two sorted footprints intersect.
func dependent(a, b []sim.Key) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c == 0:
			return true
		case c < 0:
			i++
		default:
			j++
		}
	}
	return false
}

func sameFrontier(a, b []sim.EventInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Label != b[i].Label {
			return false
		}
	}
	return true
}

func sleepHasSeq(entries []sleepEntry, seq uint64) bool {
	for _, se := range entries {
		if se.seq == seq {
			return true
		}
	}
	return false
}

// choices returns the chosen index at every decision of the trace, i.e.
// the schedule part of a repro spec for the execution just finished.
func (g *guided) choices() []int {
	out := make([]int, len(g.points))
	for i, pt := range g.points {
		out[i] = pt.chosen
	}
	return out
}

// analyze runs the race analysis over the finished trace: for every step
// j, find the most recent same-time step i that touches overlapping
// state without being causally ordered before j, and schedule the
// reordering at i's decision point. If j's event was already co-enabled
// at i the reordering is a single alternative choice; otherwise every
// alternative at i must be tried (the conservative persistent-set
// fallback). Candidates found in i's inherited sleep set are skipped:
// the subtree that starts with them was already explored.
func (g *guided) analyze(m *metrics) {
	for j := range g.steps {
		sj := &g.steps[j]
		for i := j - 1; i >= 0 && g.steps[i].at == sj.at; i-- {
			si := &g.steps[i]
			// An "ext" event, scheduled through the untyped Schedule/After
			// API, may touch state the footprints cannot see, so it is
			// conservatively dependent with everything.
			dep := dependent(si.foot, sj.foot) || si.label.Ext() || sj.label.Ext()
			if !dep {
				continue
			}
			if g.hb(i, j) {
				continue
			}
			if si.point >= 0 {
				pt := g.points[si.point]
				if k, ok := frontierIndex(pt, sj.seq); ok {
					m.precise++
					if c := &pt.alt[k]; !c.done && !c.backtrack {
						if sleepHasSeq(pt.sleepAt, sj.seq) {
							m.sleepSkips++
						} else {
							c.backtrack = true
							m.backtrackAdds++
						}
					}
				} else {
					m.fallback++
					for k := range pt.alt {
						if c := &pt.alt[k]; k != pt.chosen && !c.done && !c.backtrack {
							c.backtrack = true
							m.backtrackAdds++
						}
					}
				}
			}
			break // only the latest racing step matters for j
		}
	}
}

func frontierIndex(pt *point, seq uint64) (int, bool) {
	for k, ev := range pt.frontier {
		if ev.Seq == seq {
			return k, true
		}
	}
	return 0, false
}

// metrics accumulates reduction-effectiveness counters across the
// executions of one (variant, placement) exploration.
type metrics struct {
	backtrackAdds int64
	sleepSkips    int64
	precise       int64
	fallback      int64
}
