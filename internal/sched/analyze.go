package sched

import (
	"fmt"
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
// intervals. done short-circuits full blocks (the common case) and is
// the only representation of "held" for zero-byte messages.
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

// holdState is the per-(rank, block) state matrix: byte coverage plus
// the contributor set the copy carries (see Goal). For a plain move the
// set is the sender's; matching sets merge coverage, a different set
// replaces the copy outright. A reducing delivery unions two disjoint
// sets — overlap means some rank's contribution would fold in twice.
type holdState struct {
	n, nb, msg int
	cov        []cover       // rank*nb + block
	set        []contribSet  // rank*nb + block; nil = holds nothing
	win        []blockWindow // scratch: the windows of the transfer in hand
}

// reset sizes the matrix for n ranks x nb blocks and seeds it with the
// goal's initial holds, reusing the tables of an earlier analysis when
// they are large enough.
func (h *holdState) reset(n, nb, msg int, g *Goal) {
	h.n, h.nb, h.msg = n, nb, msg
	h.cov, h.set = zeroed(h.cov, n*nb), zeroed(h.set, n*nb)
	for r, list := range g.Init {
		for _, rng := range list {
			for b := rng.First; b < rng.First+rng.Count; b++ {
				h.cov[r*nb+b].markAll()
				h.set[r*nb+b] = h.set[r*nb+b].with(r, n)
			}
		}
	}
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

func (h *holdState) at(rank, block int) *cover        { return &h.cov[rank*h.nb+block] }
func (h *holdState) setAt(rank, block int) contribSet { return h.set[rank*h.nb+block] }

// windows expands t's byte window into per-block slices, in the scratch
// the next call overwrites.
func (h *holdState) windows(t *Transfer) []blockWindow {
	h.win = appendWindows(h.win[:0], t, h.msg)
	return h.win
}

// read is the source side of one transfer, taken before any of the
// step's deliveries land (sends read pre-step state): it appends the
// source's contributor set of every block window to sets, for deliver,
// and reports the first block the source does not fully hold, or -1.
// Sets are copy-on-write, so aliasing the live ones is safe.
func (h *holdState) read(t *Transfer, sets []contribSet) (_ []contribSet, unheld int) {
	unheld = -1
	for _, w := range h.windows(t) {
		sets = append(sets, h.setAt(t.Src, w.block))
		// Partial coverage could in principle satisfy a partial read, but
		// no builder forwards bytes it holds only partially; requiring
		// full blocks keeps the invariant simple and strict.
		if unheld < 0 && !h.at(t.Src, w.block).full() {
			unheld = w.block
		}
	}
	return sets, unheld
}

// deliver credits the transfer's byte window to the destination, using
// the pre-step source sets read took — one per block window, in window
// order — and returns how many it consumed. Reducing deliveries report
// double folds and partially-held destinations through viol.
func (h *holdState) deliver(t *Transfer, srcSets []contribSet, si, xi int, viol *violations) int {
	ws := h.windows(t)
	for i, w := range ws {
		idx := t.Dst*h.nb + w.block
		if t.Red {
			switch {
			case h.set[idx] == nil:
				// Folding into nothing is a plain arrival.
				h.set[idx] = srcSets[i]
				h.cov[idx] = cover{}
				h.cov[idx].add(w.lo, w.hi, h.msg)
			case !h.cov[idx].full():
				viol.addf("step %d xfer %d: rank %d folds into partially held block %d", si, xi, t.Dst, w.block)
			case !h.set[idx].disjoint(srcSets[i]):
				viol.addf("step %d xfer %d: double fold into rank %d block %d", si, xi, t.Dst, w.block)
			default:
				h.set[idx] = h.set[idx].union(srcSets[i])
			}
			continue
		}
		if h.set[idx].equal(srcSets[i]) {
			h.cov[idx].add(w.lo, w.hi, h.msg)
			continue
		}
		// A copy with different provenance replaces what was held.
		h.set[idx] = srcSets[i]
		h.cov[idx] = cover{}
		h.cov[idx].add(w.lo, w.hi, h.msg)
	}
	return len(ws)
}

// blockWindow is the slice of one block touched by a transfer window.
type blockWindow struct {
	block  int
	lo, hi int // byte range within the block
}

// appendWindows appends a transfer's byte window, cut into per-block
// slices, to out. A whole-range transfer covers all its blocks fully
// even when msg == 0 (zero-byte allgathers still have a completion
// structure).
func appendWindows(out []blockWindow, t *Transfer, msg int) []blockWindow {
	if t.Whole(msg) {
		for b := t.First; b < t.First+t.Count; b++ {
			out = append(out, blockWindow{block: b, lo: 0, hi: msg})
		}
		return out
	}
	for b := 0; b < t.Count; b++ {
		blo, bhi := b*msg, (b+1)*msg
		lo, hi := t.Off, t.Off+t.Len
		if lo < blo {
			lo = blo
		}
		if hi > bhi {
			hi = bhi
		}
		if lo < hi {
			out = append(out, blockWindow{block: t.First + b, lo: lo - blo, hi: hi - blo})
		}
	}
	return out
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

// AnalyzeGoal is Analyze against an explicit goal: initial holds come
// from goal.Init, completeness requires every Want range fully covered
// and carrying exactly its canonical contributor set, and reducing
// transfers are checked for double folds. A nil goal means the classic
// allgather contract (and then the schedule must use the default block
// space). This is how internal/compose verifies every lowered
// collective with the same machinery the allgather variants use.
func AnalyzeGoal(s *Schedule, prm *netmodel.Params, g *Goal) (*Report, error) {
	return AnalyzeGoalHealth(s, prm, nil, g)
}

// AnalyzeGoalHealth is AnalyzeGoal under a rail-health vector.
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
	srcSets                 []contribSet // the step's pre-delivery source sets, one per block window, in transfer order

	viol violations
	rep  *Report
}

// run is the whole analysis: every step in order, then completeness.
func (a *analysis) run(s *Schedule, prm *netmodel.Params, health []float64, g *Goal) (*Report, error) {
	if err := a.begin(s, prm, health, g); err != nil {
		return nil, err
	}
	for si := range s.Steps {
		a.step(si, &s.Steps[si])
	}
	return a.finish()
}

// begin validates the inputs and puts the tables in their pre-step-0
// state; the report starts at the initial self-copy.
func (a *analysis) begin(s *Schedule, prm *netmodel.Params, health []float64, g *Goal) error {
	if err := s.Validate(); err != nil {
		return err
	}
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
	a.hold.reset(n, nb, s.Msg, g)
	a.viol = violations{}
	a.rep = &Report{StepCosts: make([]sim.Duration, len(s.Steps))}
	// Every rank starts by staging its initial blocks into place; the
	// interpreter performs the same LocalCopys.
	for _, list := range g.Init {
		var d sim.Duration
		for _, rng := range list {
			d += prm.CopyTime(rng.Count*s.Msg, 1)
		}
		a.rep.Cost = max(a.rep.Cost, d)
	}
	a.railRR = zeroed(a.railRR, n)
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
	return nil
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
			if !hold.at(cp.Rank, b).full() {
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
					// The runtime's failover skips dead rails; ValidHealth
					// guarantees a live one exists.
					r = railRR[t.Src] % H
					railRR[t.Src]++
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

// deliver is pass 4: the step's deliveries land, for the next step to
// read. It consumes the source sets check took.
func (a *analysis) deliver(si int, st *Step) {
	sets := a.srcSets
	for xi := range st.Xfers {
		t := &st.Xfers[xi]
		sets = sets[a.hold.deliver(t, sets, si, xi, &a.viol):]
	}
}

// finish is completeness: every wanted block fully covered and carrying
// exactly its canonical contributor set (for an allgather, "rank r ends
// holding every block"; for a reduction, "fully folded, no double
// counting").
func (a *analysis) finish() (*Report, error) {
	g, hold, viol := a.goal, &a.hold, &a.viol
	n := hold.n
	canon := g.contributors(n)
	for r := 0; r < n && viol.n <= 8; r++ {
		for _, rng := range g.Want[r] {
			for b := rng.First; b < rng.First+rng.Count; b++ {
				if !hold.at(r, b).full() {
					viol.addf("rank %d ends missing block %d", r, b)
				} else if got := hold.setAt(r, b); !got.equal(canon[b]) {
					viol.addf("rank %d ends block %d with %d of %d contributions",
						r, b, got.count(), canon[b].count())
				}
			}
		}
	}
	if err := viol.err(); err != nil {
		return nil, err
	}
	return a.rep, nil
}

// reduceBW is the fold bandwidth (bytes/s) charged to the destination
// CPU per reducing delivery, matching the byte-wise reducers' cost
// model (collectives.Float64Sum and compose's byte-sum both use 8 GB/s).
const reduceBW = 8e9

// hcaPiece prices one rail piece of an adapter transfer: startup plus
// wire time at the rail's surviving bandwidth, plus the rendezvous
// handshake when the whole message crosses the threshold — the same
// shape mpi.sendHCA charges per rail. Dead rails (health <= 0) are the
// caller's problem: pinned use is a violation and the policy paths never
// route bytes to them.
func hcaPiece(prm *netmodel.Params, total, piece int, health float64) sim.Duration {
	d := prm.AlphaHCA + sim.FromSeconds(float64(piece)/prm.EffectiveBW(health))
	if total >= prm.RendezvousThreshold {
		d += prm.AlphaRendezvous
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
