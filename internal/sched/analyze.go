package sched

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strings"

	"mha/internal/netmodel"
	"mha/internal/sim"
)

// analyzeMaxRanks bounds the hold-tracking matrix (ranks x blocks); the
// analyzer is meant for schedules the simulator can also run, not for
// arbitrarily large parsed inputs.
const analyzeMaxRanks = 4096

// analyzeMaxEndpoints bounds nodes x rails, the size of the per-step
// rail tables: a parsed header may claim any rail count.
const analyzeMaxEndpoints = 1 << 16

// Report is the analyzer's verdict on a valid schedule: the alpha-beta
// critical-path estimate and traffic accounting.
type Report struct {
	// Cost is the predicted makespan: the initial self-copy plus, per
	// step, the busiest resource's serialized work (CPU seconds for CMA
	// pushes/pulls/staging copies, rail tx/rx occupation for adapter
	// transfers), summed over steps.
	Cost      sim.Duration
	StepCosts []sim.Duration
	// Transfers / Pulls / Copies count schedule entries; Reduces counts
	// the transfers that fold on receive; WireBytes and IntraBytes split
	// the payload traffic at the node boundary.
	Transfers, Pulls, Copies int
	Reduces                  int
	WireBytes, IntraBytes    int64
}

// violations accumulates analyzer findings, keeping the first few —
// or, when quiet, only counting them.
type violations struct {
	n     int
	msgs  []string
	quiet bool
}

func (v *violations) addf(format string, args ...interface{}) {
	v.n++
	if len(v.msgs) < 8 && !v.quiet {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) err() error {
	if v.n == 0 {
		return nil
	}
	s := strings.Join(v.msgs, "; ")
	if extra := v.n - len(v.msgs); extra > 0 {
		s += fmt.Sprintf("; and %d more", extra)
	}
	return fmt.Errorf("sched: invalid schedule: %s", s)
}

// cover tracks which bytes of one block a rank holds, as sorted disjoint
// intervals; done means all of them. The hold matrix keeps one only for
// a block held in part (holdState.part).
type cover struct {
	done bool
	ivs  [][2]int
}

func (c *cover) markAll() { c.done = true; c.ivs = nil }

func (c *cover) add(lo, hi, size int) {
	if c.done {
		return
	}
	if lo <= 0 && hi >= size {
		c.markAll()
		return
	}
	// ivs[i:j] are the intervals the new one overlaps or touches; it
	// absorbs them and takes their place.
	i := 0
	for i < len(c.ivs) && c.ivs[i][1] < lo {
		i++
	}
	j := i
	for ; j < len(c.ivs) && c.ivs[j][0] <= hi; j++ {
		lo, hi = min(lo, c.ivs[j][0]), max(hi, c.ivs[j][1])
	}
	c.ivs = slices.Replace(c.ivs, i, j, [2]int{lo, hi})
	if len(c.ivs) == 1 && c.ivs[0][0] <= 0 && c.ivs[0][1] >= size {
		c.markAll()
	}
}

func (c *cover) full() bool { return c.done }

// holdEntry is one (rank, block) entry of the hold matrix: whether the
// rank holds every byte of the block, and the id of the contributor set
// its copy carries (see setTable). An entry holds no pointers, so the
// matrix is neither scanned by the collector nor written through
// barriers.
type holdEntry struct {
	set  int32
	done bool
}

// holdState is the per-(rank, block) state matrix: byte coverage plus
// the contributor set the copy carries (see Goal). For a plain move the
// set is the sender's; matching sets merge coverage, a different set
// replaces the copy outright. A reducing delivery unions two disjoint
// sets — overlap means some rank's contribution would fold in twice.
// Bytes held short of a whole block live in part, keyed by entry, until
// the block fills or the copy is replaced.
type holdState struct {
	n, nb, msg int
	m          []holdEntry   // rank*nb + block
	part       map[int]cover // rank*nb + block -> partial coverage
	sets       setTable
}

// reset sizes the matrix for n ranks x nb blocks and seeds it with the
// goal's initial holds, reusing the tables of an earlier analysis when
// they are large enough.
func (h *holdState) reset(n, nb, msg int, g *Goal) {
	h.n, h.nb, h.msg = n, nb, msg
	h.m = zeroed(h.m, n*nb)
	clear(h.part)
	h.sets.reset(n)
	for r, list := range g.Init {
		for _, rng := range list {
			for b := rng.First; b < rng.First+rng.Count; b++ {
				h.m[r*nb+b] = holdEntry{set: int32(r + 1), done: true}
			}
		}
	}
}

// copyFrom makes h a copy of src that shares no memory with it, in h's
// own tables where they are large enough.
func (h *holdState) copyFrom(src *holdState) {
	h.n, h.nb, h.msg = src.n, src.nb, src.msg
	h.m = append(h.m[:0], src.m...)
	clear(h.part)
	if h.part == nil && len(src.part) > 0 {
		h.part = map[int]cover{}
	}
	for i, c := range src.part {
		h.part[i] = cover{done: c.done, ivs: slices.Clone(c.ivs)}
	}
	h.sets.copyFrom(&src.sets)
}

// zeroed returns a zeroed slice of n elements, in s's memory when it fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (h *holdState) held(rank, block int) bool { return h.m[rank*h.nb+block].done }

// span is the blocks First+b0 .. First+b1-1 that t's byte window
// touches. A window as long as its range starts at offset 0 (Validate)
// and touches every block, even when msg == 0: zero-byte allgathers
// still have a completion structure. A shorter one has msg > 0 and is
// not empty.
func span(t *Transfer, msg int) (b0, b1 int) {
	if t.Len == t.Count*msg {
		return 0, t.Count
	}
	return t.Off / msg, (t.Off + t.Len + msg - 1) / msg
}

// read is the source side of one transfer, taken before any of the
// step's deliveries land (sends read pre-step state): it appends the
// source's contributor set of every block the window touches to sets,
// for deliver, and reports the first block the source does not fully
// hold, or -1.
func (h *holdState) read(t *Transfer, sets []int32) (_ []int32, unheld int) {
	unheld = -1
	b0, b1 := span(t, h.msg)
	row := t.Src*h.nb + t.First
	for j, e := range h.m[row+b0 : row+b1] {
		sets = append(sets, e.set)
		// Partial coverage could in principle satisfy a partial read, but
		// no builder forwards bytes it holds only partially; requiring
		// full blocks keeps the invariant simple and strict.
		if unheld < 0 && !e.done {
			unheld = t.First + b0 + j
		}
	}
	return sets, unheld
}

// deliver credits the transfer's byte window to the destination, using
// the pre-step source sets read took — one per block the window
// touches, in block order — and returns how many it consumed. Reducing
// deliveries report double folds and partially-held destinations
// through viol.
func (h *holdState) deliver(t *Transfer, srcSets []int32, si, xi int, viol *violations) int {
	msg, row := h.msg, t.Dst*h.nb+t.First
	b0, b1 := span(t, msg)
	for b := b0; b < b1; b++ {
		// The window's bytes within block First+b.
		lo, hi := max(t.Off-b*msg, 0), min(t.Off+t.Len-b*msg, msg)
		i, src := row+b, srcSets[b-b0]
		e := &h.m[i]
		if t.Red {
			switch {
			case e.set == 0:
				// Folding into nothing is a plain arrival.
				h.replace(e, i, src)
				h.credit(e, i, lo, hi)
			case !e.done:
				viol.addf("step %d xfer %d: rank %d folds into partially held block %d", si, xi, t.Dst, t.First+b)
			default:
				if u, overlap := h.sets.union(e.set, src); overlap {
					viol.addf("step %d xfer %d: double fold into rank %d block %d", si, xi, t.Dst, t.First+b)
				} else {
					e.set = u
				}
			}
			continue
		}
		switch {
		case e.set != src:
			// A copy with different provenance replaces what was held.
			h.replace(e, i, src)
			h.credit(e, i, lo, hi)
		case !e.done:
			h.credit(e, i, lo, hi)
		}
	}
	return b1 - b0
}

// credit adds bytes [lo, hi) of the block to entry i, e, of the matrix,
// which is not done. A done entry has nothing in part.
func (h *holdState) credit(e *holdEntry, i, lo, hi int) {
	if hi-lo == h.msg && len(h.part) == 0 {
		e.done = true
		return
	}
	h.creditPart(i, lo, hi)
}

// creditPart is credit through the side table.
func (h *holdState) creditPart(i, lo, hi int) {
	c := h.part[i]
	if c.add(lo, hi, h.msg); c.full() {
		h.m[i].done = true
		delete(h.part, i)
		return
	}
	if h.part == nil {
		h.part = map[int]cover{}
	}
	h.part[i] = c
}

// replace makes entry i, e, a fresh copy carrying set id and no bytes.
func (h *holdState) replace(e *holdEntry, i int, id int32) {
	*e = holdEntry{set: id}
	if len(h.part) > 0 {
		delete(h.part, i)
	}
}

// setTable names contributor sets by int32 ids. Id 0 is the empty set
// and id r+1 the singleton {r}; neither has anything behind it. A set of
// two or more ranks only arises from a reducing delivery's union (or a
// goal's canonical set), and is interned here under an id above n the
// first time it is made, so two copies carry the same set exactly when
// their ids are equal.
type setTable struct {
	n, w  int
	words []uint64         // interned set n+1+k is words[k*w : (k+1)*w]
	first map[uint64]int32 // hash of the words -> the latest set with it
	next  []int32          // set n+1+k -> the previous one with its hash, or 0
	tmp   []uint64         // the union in hand
}

func (t *setTable) reset(n int) {
	t.n, t.w = n, (n+63)/64
	t.words, t.next = t.words[:0], t.next[:0]
	clear(t.first)
	t.tmp = zeroed(t.tmp, t.w)
}

// copyFrom makes t a copy of src that shares no memory with it.
func (t *setTable) copyFrom(src *setTable) {
	t.n, t.w = src.n, src.w
	t.words = append(t.words[:0], src.words...)
	t.next = append(t.next[:0], src.next...)
	clear(t.first)
	if t.first == nil && len(src.first) > 0 {
		t.first = map[uint64]int32{}
	}
	maps.Copy(t.first, src.first)
	t.tmp = zeroed(t.tmp, t.w)
}

// bits is an interned set's bitset.
func (t *setTable) bits(id int32) []uint64 {
	k := int(id) - t.n - 1
	return t.words[k*t.w : (k+1)*t.w]
}

// add ORs set id into u and reports whether the two overlapped.
func (t *setTable) add(u []uint64, id int32) (overlap bool) {
	if id > int32(t.n) {
		for i, w := range t.bits(id) {
			overlap = overlap || u[i]&w != 0
			u[i] |= w
		}
		return overlap
	}
	if id > 0 {
		w, bit := (id-1)/64, uint64(1)<<uint((id-1)%64)
		overlap = u[w]&bit != 0
		u[w] |= bit
	}
	return overlap
}

// union returns the id of x ∪ y and whether x and y overlap.
func (t *setTable) union(x, y int32) (int32, bool) {
	u := t.tmp
	clear(u)
	t.add(u, x)
	overlap := t.add(u, y)
	return t.intern(u), overlap
}

// intern returns the id of the set bitset u holds.
func (t *setTable) intern(u []uint64) int32 {
	count, r := 0, 0
	for i, w := range u {
		if w != 0 {
			count += bits.OnesCount64(w)
			r = i*64 + bits.TrailingZeros64(w)
		}
	}
	switch count {
	case 0:
		return 0
	case 1:
		return int32(r + 1)
	}
	h := uint64(len(u))
	for _, w := range u {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	for id := t.first[h]; id != 0; id = t.next[int(id)-t.n-1] {
		if slices.Equal(t.bits(id), u) {
			return id
		}
	}
	id := int32(t.n + 1 + len(t.next))
	t.words = append(t.words, u...)
	if t.first == nil {
		t.first = map[uint64]int32{}
	}
	t.next = append(t.next, t.first[h])
	t.first[h] = id
	return id
}

// count is the number of ranks in set id.
func (t *setTable) count(id int32) int {
	if id <= int32(t.n) {
		return min(int(id), 1)
	}
	c := 0
	for _, w := range t.bits(id) {
		c += bits.OnesCount64(w)
	}
	return c
}

// Analyze statically checks a schedule and prices it, without running
// the simulator. The three semantic invariants:
//
//  1. progression — a transfer only forwards blocks its source fully
//     holds at the start of the step (sends read pre-step state);
//  2. completeness — after the last step every rank holds every block;
//  3. rail exclusivity — within a step, pinned (via=rail) transfers get
//     a (node, rail, direction) endpoint exclusively; two pinned
//     transfers colliding on one is a planning error. Policy transfers
//     (auto/hca) are best-effort and exempt: the runtime serializes
//     them on the rail resources instead.
//
// The returned Report prices each step as the busiest resource's
// serialized work under the netmodel alpha-beta costs, mirroring how the
// runtime charges the same primitives (CMA and staging copies see the
// node's memory-congestion factor at the step's concurrency; adapter
// transfers pay per-piece startup plus rendezvous above the threshold;
// unpinned inter-node transfers stripe above StripeThreshold and
// round-robin below it, like mpi.Isend's healthy policy).
func Analyze(s *Schedule, prm *netmodel.Params) (*Report, error) {
	return AnalyzeHealth(s, prm, nil)
}

// AnalyzeHealth is Analyze under a steady rail-health vector (see
// ValidHealth): degraded rails price at their surviving bandwidth, policy
// transfers stripe across rails weighted by health (and round-robin only
// over the live ones), mirroring the runtime's health-aware transport
// under the equivalent fault schedule — and a transfer pinned to a down
// rail is an invariant violation, because the runtime would wait on it
// forever. A nil vector is exactly Analyze.
func AnalyzeHealth(s *Schedule, prm *netmodel.Params, health []float64) (*Report, error) {
	return AnalyzeGoalHealth(s, prm, health, nil)
}

// AnalyzeGoalHealth is AnalyzeHealth against an explicit goal: initial
// holds come from goal.Init, completeness requires every Want range fully
// covered and carrying exactly its canonical contributor set, and
// reducing transfers are checked for double folds. A nil goal means the
// classic allgather contract (and then the schedule must use the default
// block space). This is how internal/compose verifies every lowered
// collective with the same machinery the allgather variants use.
//
//lint:pure the alpha-beta price feeds cached decisions and must not drift
func AnalyzeGoalHealth(s *Schedule, prm *netmodel.Params, health []float64, g *Goal) (*Report, error) {
	var a analysis
	return a.run(s, prm, health, g)
}

// analysis is the analyzer's state over one schedule: the hold matrix and
// the dense per-step tables (a rail endpoint is node*H + rail, a CPU its
// rank, a node's memory system its node), with the four passes of a step
// — check, census, price, deliver — as methods. The synthesizer keeps one
// for a whole search: begin clears the tables instead of allocating them,
// and a walk of a candidate stops between steps to quote changed ones.
type analysis struct {
	prm    *netmodel.Params
	health []float64
	goal   *Goal
	H      int   // rails per node
	nodeOf []int // rank -> node

	hold    holdState
	railRR  []int // per-rank round-robin cursor, mirroring the runtime
	rrSaved []int // quote's copy of railRR

	pinnedTX, pinnedRX      []int // pinned users of the endpoint this step
	memOps                  []int // CMA/copy operations hitting the node this step
	busyCPU, busyTX, busyRX []sim.Duration
	srcSets                 []int32 // the step's pre-delivery source sets, one per block a window touches, in transfer order
	canon                   []int32 // finishFrom's canonical set of every block

	total []sim.Duration // floor's per-resource sums: CPUs, then rail tx, then rail rx

	viol violations
	rep  *Report
}

// run is the whole analysis: validation, every step in order, then
// completeness.
func (a *analysis) run(s *Schedule, prm *netmodel.Params, health []float64, g *Goal) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := a.begin(s, prm, health, g, nil); err != nil {
		return nil, err
	}
	return a.finishFrom(s, 0, math.MaxInt64)
}

// begin checks the inputs other than s, which it takes to be valid (run
// validates it; a Builder's plan, which ApplyHealth's repair keeps valid,
// and a plan the search analyzed in full are), and sizes the per-step
// tables for s. With a nil cp it puts the analysis before step 0, the
// report at the initial self-copy; otherwise where cp stopped, for an s
// whose first cp.steps steps are the ones cp walked, under cp's goal and
// otherwise the same inputs.
func (a *analysis) begin(s *Schedule, prm *netmodel.Params, health []float64, g *Goal, cp *checkpoint) error {
	if err := ValidHealth(health, s.Topo.HCAs); err != nil {
		return err
	}
	if prm == nil {
		prm = netmodel.Thor()
	}
	if err := prm.Validate(); err != nil {
		return err
	}
	topo := s.Topo
	n := topo.Size()
	if n > analyzeMaxRanks {
		return fmt.Errorf("sched: analyzer supports up to %d ranks, schedule has %d", analyzeMaxRanks, n)
	}
	nb := s.Blocks()
	if cp != nil {
		g = cp.goal
	}
	if g == nil {
		if s.NumBlocks != 0 && s.NumBlocks != n {
			return fmt.Errorf("sched: block space %d needs an explicit goal (world has %d ranks)", s.NumBlocks, n)
		}
		g = AllgatherGoal(n)
	}
	if err := g.Validate(n, nb); err != nil {
		return err
	}
	if n*nb > analyzeMaxRanks*analyzeMaxRanks {
		return fmt.Errorf("sched: hold matrix %d x %d exceeds the analyzer's bound", n, nb)
	}
	if topo.HCAs > analyzeMaxEndpoints/topo.Nodes {
		return fmt.Errorf("sched: analyzer supports up to %d rail endpoints, schedule has %d nodes x %d rails", analyzeMaxEndpoints, topo.Nodes, topo.HCAs)
	}
	a.prm, a.health, a.goal, a.H = prm, health, g, topo.HCAs
	a.nodeOf = zeroed(a.nodeOf, n)
	for r := range a.nodeOf {
		a.nodeOf[r] = topo.NodeOf(r)
	}
	ends := topo.Nodes * topo.HCAs
	a.pinnedTX, a.pinnedRX = zeroed(a.pinnedTX, ends), zeroed(a.pinnedRX, ends)
	a.busyTX, a.busyRX = zeroed(a.busyTX, ends), zeroed(a.busyRX, ends)
	a.memOps = zeroed(a.memOps, topo.Nodes)
	a.busyCPU = zeroed(a.busyCPU, n)
	// At most one source set per block a transfer names.
	most := 0
	for si := range s.Steps {
		blocks := 0
		for xi := range s.Steps[si].Xfers {
			blocks += s.Steps[si].Xfers[xi].Count
		}
		most = max(most, blocks)
	}
	a.srcSets = slices.Grow(a.srcSets[:0], most)

	stepCosts := make([]sim.Duration, len(s.Steps))
	if cp != nil {
		a.hold.copyFrom(&cp.hold)
		a.railRR = append(a.railRR[:0], cp.railRR...)
		rep := cp.rep
		rep.StepCosts = stepCosts
		copy(stepCosts, cp.rep.StepCosts)
		a.rep = &rep
		a.viol = cp.viol
		a.viol.msgs = slices.Clone(cp.viol.msgs)
		return nil
	}
	a.hold.reset(n, nb, s.Msg, g)
	a.viol = violations{}
	a.rep = &Report{StepCosts: stepCosts}
	// Every rank starts by staging its initial blocks into place; the
	// interpreter performs the same LocalCopys.
	for _, list := range g.Init {
		var d sim.Duration
		for _, rng := range list {
			d += a.prm.CopyTime(rng.Count*s.Msg, 1)
		}
		a.rep.Cost = max(a.rep.Cost, d)
	}
	a.railRR = zeroed(a.railRR, n)
	return nil
}

// checkpoint is an analysis stopped between two steps: everything the
// steps carry forward, copied out, so that schedules which begin with the
// same steps resume there instead of walking them again.
type checkpoint struct {
	steps  int // the steps behind it
	goal   *Goal
	hold   holdState
	railRR []int
	rep    Report
	viol   violations
}

// save copies the analysis out after its first steps steps.
func (a *analysis) save(steps int) *checkpoint {
	cp := &checkpoint{steps: steps, goal: a.goal, railRR: slices.Clone(a.railRR), rep: *a.rep, viol: a.viol}
	cp.hold.copyFrom(&a.hold)
	cp.rep.StepCosts = slices.Clone(a.rep.StepCosts[:steps])
	cp.viol.msgs = slices.Clone(a.viol.msgs)
	return cp
}

// step takes the analysis from before step si to after it.
func (a *analysis) step(si int, st *Step) {
	a.check(si, st)
	a.census(st)
	a.rep.StepCosts[si] = a.price(st)
	a.rep.Cost += a.rep.StepCosts[si]
	a.deliver(si, st)
}

// check is pass 1, the invariants. Sends read pre-step state, so all
// checks — and the contributor-set snapshots the deliveries need —
// precede all deliveries.
func (a *analysis) check(si int, st *Step) {
	H, nodeOf, hold, viol := a.H, a.nodeOf, &a.hold, &a.viol
	pinnedTX, pinnedRX, srcSets := a.pinnedTX, a.pinnedRX, a.srcSets[:0]
	clear(pinnedTX)
	clear(pinnedRX)
	for xi := range st.Xfers {
		t := &st.Xfers[xi]
		var unheld int
		if srcSets, unheld = hold.read(t, srcSets); unheld >= 0 {
			viol.addf("step %d xfer %d: rank %d sends block %d before holding it", si, xi, t.Src, unheld)
		}
		if t.Via == ViaRail {
			if healthOf(a.health, t.Rail) <= 0 {
				viol.addf("step %d xfer %d: pinned to down rail %d", si, xi, t.Rail)
			}
			srcNode, dstNode := nodeOf[t.Src], nodeOf[t.Dst]
			tx, rx := srcNode*H+t.Rail, dstNode*H+t.Rail
			if pinnedTX[tx]++; pinnedTX[tx] > 1 {
				viol.addf("step %d xfer %d: rail conflict: node %d rail %d tx pinned twice", si, xi, srcNode, t.Rail)
			}
			if pinnedRX[rx]++; pinnedRX[rx] > 1 {
				viol.addf("step %d xfer %d: rail conflict: node %d rail %d rx pinned twice", si, xi, dstNode, t.Rail)
			}
		}
	}
	a.srcSets = srcSets
	for ci, cp := range st.Copies {
		for b := cp.First; b < cp.First+cp.Count; b++ {
			if !hold.held(cp.Rank, b) {
				viol.addf("step %d copy %d: rank %d stages block %d before holding it", si, ci, cp.Rank, b)
				break
			}
		}
	}
}

// census is pass 2, the concurrency count for the memory-congestion
// factor: how many CMA/copy operations hit each node in this step.
func (a *analysis) census(st *Step) {
	nodeOf, memOps := a.nodeOf, a.memOps
	clear(memOps)
	for xi := range st.Xfers {
		t := &st.Xfers[xi]
		switch t.Via {
		case ViaAuto:
			if nodeOf[t.Src] == nodeOf[t.Dst] {
				memOps[nodeOf[t.Src]]++
			}
		case ViaPull:
			memOps[nodeOf[t.Dst]]++
		}
	}
	for _, cp := range st.Copies {
		memOps[nodeOf[cp.Rank]]++
	}
}

// price is pass 3. Each resource serializes its own work; the step
// finishes when the busiest resource does. It reads census's counts,
// advances the round-robin cursors of the policy transfers it routes and
// tallies the step's traffic into the report.
func (a *analysis) price(st *Step) sim.Duration {
	prm, health, H, nodeOf, memOps, rep := a.prm, a.health, a.H, a.nodeOf, a.memOps, a.rep
	busyCPU, busyTX, busyRX, railRR := a.busyCPU, a.busyTX, a.busyRX, a.railRR
	clear(busyCPU)
	clear(busyTX)
	clear(busyRX)
	for xi := range st.Xfers {
		t := &st.Xfers[xi]
		srcNode, dstNode := nodeOf[t.Src], nodeOf[t.Dst]
		sameNode := srcNode == dstNode
		switch {
		case t.Via == ViaPull:
			busyCPU[t.Dst] += prm.CMATime(t.Len, memOps[dstNode])
			rep.Pulls++
			rep.IntraBytes += int64(t.Len)
		case t.Via == ViaAuto && sameNode:
			busyCPU[t.Src] += prm.CMATime(t.Len, memOps[srcNode])
			rep.IntraBytes += int64(t.Len)
		case t.Via == ViaRail:
			d := hcaPiece(prm, t.Len, t.Len, healthOf(health, t.Rail))
			busyTX[srcNode*H+t.Rail] += d
			busyRX[dstNode*H+t.Rail] += d
			rep.WireBytes += int64(t.Len)
		default: // ViaHCA anywhere, or ViaAuto across nodes
			if prm.ShouldStripe(t.Len) && H > 1 {
				for rail, piece := range stripeChunks(t.Len, H, health) {
					if piece == 0 {
						continue
					}
					d := hcaPiece(prm, t.Len, piece, healthOf(health, rail))
					busyTX[srcNode*H+rail] += d
					busyRX[dstNode*H+rail] += d
				}
			} else {
				r := railRR[t.Src] % H
				railRR[t.Src]++
				for healthOf(health, r) <= 0 {
					// The runtime's failover takes the next live rail
					// without moving the cursor again; ValidHealth
					// guarantees one exists.
					r = (r + 1) % H
				}
				d := hcaPiece(prm, t.Len, t.Len, healthOf(health, r))
				busyTX[srcNode*H+r] += d
				busyRX[dstNode*H+r] += d
			}
			rep.WireBytes += int64(t.Len)
		}
		if t.Red {
			// The destination folds the arrived bytes into its copy;
			// priced like the byte-wise reducers charge compute.
			busyCPU[t.Dst] += sim.FromSeconds(float64(t.Len) / reduceBW)
			rep.Reduces++
		}
		rep.Transfers++
	}
	for _, cp := range st.Copies {
		busyCPU[cp.Rank] += prm.CopyTime(cp.Count*a.hold.msg, memOps[nodeOf[cp.Rank]])
		rep.Copies++
	}
	return max(slices.Max(busyCPU), slices.Max(busyTX), slices.Max(busyRX))
}

// quote answers, between two steps of a walk, what the analysis would
// make of st standing where step si does: whether it passes check and,
// if so, its price. Findings, round-robin cursors and the report's
// tallies are put back; the per-step tables are scratch between steps.
func (a *analysis) quote(si int, st *Step) (sim.Duration, bool) {
	viol := a.viol
	a.viol = violations{quiet: true}
	a.check(si, st)
	ok := a.viol.n == 0
	a.viol = viol
	if !ok {
		return 0, false
	}
	rep := *a.rep
	a.rrSaved = append(a.rrSaved[:0], a.railRR...)
	a.census(st)
	worst := a.price(st)
	copy(a.railRR, a.rrSaved)
	*a.rep = rep
	return worst, true
}

// floor is a lower bound on the makespan of s, which the analysis has
// found valid: the most work any one serial resource — a rank's CPU, a
// node's rail tx or rx — does over the whole schedule. It is price run on
// every step with census's counts cleared, so at the uncongested rate,
// with each resource's busy time summed over the steps, plus the initial
// self-copies begin charges. Cost takes each step's busiest resource at
// the congested rate, so floor <= Cost. Each resource is one
// sim.Resource, which serializes its work, and where the runtime charges
// every op at least its uncongested price (exactWhenBounded) no run ends
// before its busiest resource has drained. begin gives the walk a report
// of its own, so the tallies price makes go no further.
func (a *analysis) floor(s *Schedule, prm *netmodel.Params, health []float64) (sim.Duration, error) {
	if err := a.begin(s, prm, health, nil, nil); err != nil {
		return 0, err
	}
	n, ends := len(a.busyCPU), len(a.busyTX)
	a.total = zeroed(a.total, n+2*ends)
	cpu, tx, rx := a.total[:n], a.total[n:n+ends], a.total[n+ends:]
	for r, list := range a.goal.Init {
		for _, rng := range list {
			cpu[r] += a.prm.CopyTime(rng.Count*s.Msg, 1)
		}
	}
	add := func(sum, busy []sim.Duration) {
		for i, d := range busy {
			sum[i] += d
		}
	}
	for si := range s.Steps {
		clear(a.memOps)
		a.price(&s.Steps[si])
		add(cpu, a.busyCPU)
		add(tx, a.busyTX)
		add(rx, a.busyRX)
	}
	return slices.Max(a.total), nil
}

// deliver is pass 4: the step's deliveries land, for the next step to
// read. It consumes the source sets check took.
func (a *analysis) deliver(si int, st *Step) {
	sets := a.srcSets
	for xi := range st.Xfers {
		t := &st.Xfers[xi]
		sets = sets[a.hold.deliver(t, sets, si, xi, &a.viol):]
	}
}

// finishFrom takes the analysis through steps from.. of s, then checks
// completeness: every wanted block fully covered and carrying exactly its
// canonical contributor set (for an allgather, "rank r ends holding every
// block"; for a reduction, "fully folded, no double counting"). It gives
// up, with neither a report nor an error, as soon as the running cost is
// above limit; a step's cost is never negative, so the whole schedule's
// would be too.
func (a *analysis) finishFrom(s *Schedule, from int, limit sim.Duration) (*Report, error) {
	for si := from; si < len(s.Steps) && a.rep.Cost <= limit; si++ {
		a.step(si, &s.Steps[si])
	}
	if a.rep.Cost > limit {
		return nil, nil
	}
	g, hold, viol := a.goal, &a.hold, &a.viol
	n := hold.n
	canon := a.canonical()
	for r := 0; r < n && viol.n <= 8; r++ {
		for _, rng := range g.Want[r] {
			row := hold.m[r*hold.nb+rng.First:][:rng.Count]
			want := canon[rng.First:][:rng.Count]
			if holdsAll(row, want) {
				continue
			}
			for j, e := range row {
				if !e.done {
					viol.addf("rank %d ends missing block %d", r, rng.First+j)
				} else if e.set != want[j] {
					viol.addf("rank %d ends block %d with %d of %d contributions",
						r, rng.First+j, hold.sets.count(e.set), hold.sets.count(want[j]))
				}
			}
		}
	}
	if err := viol.err(); err != nil {
		return nil, err
	}
	return a.rep, nil
}

// holdsAll reports whether every entry of row is done and carries the
// set want names for it. finishFrom asks it first: a loop with no calls in
// it keeps its state in registers, where the reporting loop spills.
func holdsAll(row []holdEntry, want []int32) bool {
	for j, e := range row {
		if !e.done || e.set != want[j] {
			return false
		}
	}
	return true
}

// canonical is every block's canonical contributor set: the ranks whose
// Init covers it.
func (a *analysis) canonical() []int32 {
	sets := &a.hold.sets
	canon := zeroed(a.canon, a.goal.Blocks)
	for r, list := range a.goal.Init {
		for _, rng := range list {
			for b := rng.First; b < rng.First+rng.Count; b++ {
				if canon[b] != int32(r+1) {
					canon[b], _ = sets.union(canon[b], int32(r+1))
				}
			}
		}
	}
	a.canon = canon
	return canon
}

// reduceBW is the fold bandwidth (bytes/s) charged to the destination
// CPU per reducing delivery, matching the byte-wise reducers' cost
// model (collectives.Float64Sum and compose's byte-sum both use 8 GB/s).
const reduceBW = 8e9

// hcaPiece prices one rail piece of an adapter transfer as the runtime
// charges it: mpi.sendHCA's healthy occupation (startup, the rendezvous
// handshake when the whole message crosses the threshold, wire time),
// stretched whole by a degraded rail's health and rounded the way
// sim.Resource's steady rate profile rounds it. Dead rails (health <= 0)
// are the caller's problem: pinned use is a violation and the policy
// paths never route bytes to them.
func hcaPiece(prm *netmodel.Params, total, piece int, health float64) sim.Duration {
	d := prm.AlphaHCA + sim.FromSeconds(float64(piece)/prm.BWHCA)
	if total >= prm.RendezvousThreshold {
		d += prm.AlphaRendezvous
	}
	if health < 1 {
		d = sim.Duration(float64(d)/health + 0.5)
	}
	return d
}

// stripeChunks splits a striped policy transfer across the rails: equal
// pieces when every rail is healthy (the runtime's healthy split),
// health-weighted pieces otherwise (its re-weighted split, dead rails
// getting nothing).
func stripeChunks(n, rails int, health []float64) []int {
	if health == nil {
		return netmodel.RailChunk(n, rails)
	}
	uniform := true
	for _, h := range health {
		if h != health[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return netmodel.RailChunk(n, rails)
	}
	return netmodel.RailChunkWeighted(n, health)
}
