package mpi

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/trace"
)

// AnySource matches a message from any rank in Recv/Irecv.
const AnySource = -1

// sendOpts carries transport selection for one send.
type sendOpts struct {
	forceHCA bool   // use an HCA even for an intra-node peer (loopback)
	rail     int    // specific rail index, or -1 for the default policy
	noStripe bool   // never stripe, even above the striping threshold
	byRef    bool   // zero-cost pointer handoff (same node only)
	owner    string // owning job label, from the comm (audit attribution)
}

// SendOption customizes how a message is carried. It is a value, not a
// function: applying one calls nothing the compiler cannot see, so a send's
// options and the sendOpts they fill stay on the sender's stack.
type SendOption struct {
	kind optKind
	rail int // optViaRail's rail
}

type optKind uint8

const (
	optViaHCA optKind = iota + 1
	optViaRail
	optNoStripe
	optByRef
)

func (opt SendOption) apply(o *sendOpts) {
	switch opt.kind {
	case optViaHCA:
		o.forceHCA = true
	case optViaRail:
		o.forceHCA = true
		o.rail = opt.rail
	case optNoStripe:
		o.noStripe = true
	case optByRef:
		o.byRef = true
	}
}

// ViaHCA forces the message through the network adapters even when the
// peer is on the same node. This is the MHA-intra offload path: the NIC
// loops the transfer back into the node, leaving the CPUs free.
func ViaHCA() SendOption { return SendOption{kind: optViaHCA} }

// ViaRail pins the message to one specific rail (implies ViaHCA). When a
// fault schedule marks the pinned rail down at send time, the message
// fails over to the healthiest surviving rail and a trace event records
// the decision (unless the world is FaultBlind, in which case it queues
// on the dead rail until the outage ends).
func ViaRail(r int) SendOption {
	if r < 0 {
		panic(fmt.Sprintf("mpi: ViaRail(%d): negative rail", r))
	}
	return SendOption{kind: optViaRail, rail: r}
}

// NoStripe disables multirail striping for this message.
func NoStripe() SendOption { return SendOption{kind: optNoStripe} }

// ByRef delivers the message instantly with no transfer cost, modeling a
// pointer handoff between on-node ranks (e.g. exposing a buffer for the
// peer to read via CMA). The consumer pays for the actual copy, typically
// via ChargeCMA. Only valid between ranks on the same node.
func ByRef() SendOption { return SendOption{kind: optByRef} }

// A Request is an in-flight nonblocking operation; complete it with Wait.
type Request struct {
	p      *Proc
	isSend bool
	end    sim.Time // send: transfer completion
	// receive side:
	comm     *Comm
	src, tag int
	data     Buf
	done     bool
	posted   sim.Time
}

// received is how a rank's mailbox matches a receive against the messages
// in it: by communicator id, world source rank (or AnySource) and tag.
var received = sim.Matcher{
	Match: func(item interface{}, comm, src, tag int) bool {
		m := item.(*message)
		return m.comm == comm && m.tag == tag && (src == AnySource || m.src == src)
	},
	Describe: func(comm, src, tag int) string {
		return fmt.Sprintf("msg(comm=%d src=%d tag=%d)", comm, src, tag)
	},
}

// Isend starts a nonblocking send of data to comm rank dst. The payload is
// snapshotted immediately (the caller may reuse its buffer), into storage a
// WaitInto of this world gave back when there is some. Transfer
// resources are seized at post time; Wait blocks until the transfer ends.
//
// Isend and Irecv are thin enough to inline, and nothing they or Wait call
// keeps a pointer to the request: one that is waited in the frame that
// posted it lives on that frame's stack.
func (p *Proc) Isend(c *Comm, dst, tag int, data Buf, opts ...SendOption) *Request {
	r := new(Request)
	p.isend(r, c, dst, tag, data, opts)
	return r
}

// IsendInto is Isend into a request the caller owns: r is overwritten, and
// complete it with Wait as Isend's. A rank that keeps many sends in flight
// at once posts them into a slice of its own instead of one allocation
// each.
func (p *Proc) IsendInto(r *Request, c *Comm, dst, tag int, data Buf, opts ...SendOption) {
	p.isend(r, c, dst, tag, data, opts)
}

func (p *Proc) isend(r *Request, c *Comm, dst, tag int, data Buf, opts []SendOption) {
	var o sendOpts
	o.rail = -1
	o.owner = c.owner
	for _, opt := range opts {
		opt.apply(&o)
	}
	wdst := c.WorldRank(dst)
	wsrc := p.rs.rank
	n := data.Len()
	// Per-message posting overhead (LogGP's o): the caller's CPU is busy
	// before the transfer machinery even starts. ByRef handoffs are free.
	if post := p.w.prm.AlphaPost; post > 0 && !o.byRef {
		_, oe := p.rs.cpu.Acquire(post)
		p.sp.WaitUntil(oe)
	}
	// The record is one a Wait of this world has finished with, if any is.
	var msg *message
	if k := len(p.w.spare); k > 0 {
		msg, p.w.spare = p.w.spare[k-1], p.w.spare[:k-1]
	} else {
		msg = new(message)
	}
	*msg = message{comm: c.id, src: wsrc, dst: wdst, tag: tag, data: data, sentAt: p.Now()}
	if !data.IsPhantom() {
		msg.data = p.w.snapshot(data)
	}

	var end sim.Time
	sameNode := p.w.ranks[wdst].node == p.rs.node
	switch {
	case o.byRef:
		if !sameNode {
			panic("mpi: ByRef send to a rank on another node")
		}
		end = p.Now()
	case sameNode && !o.forceHCA:
		end = p.sendCMA(wdst, n)
	default:
		end = p.sendHCA(wdst, n, o)
	}
	p.w.ranks[wdst].mbox.PutAt(end, msg)
	*r = Request{p: p, isSend: true, end: end, posted: msg.sentAt}
}

// sendCMA carries n bytes to an on-node peer with a kernel-assisted single
// copy performed by this rank's CPU, subject to memory congestion and, on
// NUMA topologies, the cross-socket penalty.
func (p *Proc) sendCMA(wdst, n int) sim.Time {
	nd := &p.w.nodes[p.rs.node]
	conc := nd.mem.Inc()
	d := p.w.perturb(p.w.prm.CMATime(n, conc))
	if f := p.w.prm.SocketFactor(); f > 1 &&
		!p.w.topo.SameSocket(p.rs.local, p.w.ranks[wdst].local) {
		d = sim.Duration(float64(d) * f)
	}
	start, end := p.rs.cpu.Acquire(d)
	nd.mem.DecAt(end)
	p.trace(trace.CatSend, "cma", start, end, wdst, n)
	// The sending CPU is busy for the whole copy; model that by advancing
	// the rank past its own copy. Nonblocking semantics survive because
	// further sends queue on the cpu resource rather than on the caller.
	return end
}

// sendHCA carries n bytes through network adapters: a pinned rail, a
// round-robin rail for small messages, or striped across every rail for
// large ones (the multirail point-to-point design of Liu et al.).
//
// When a fault schedule is attached (and the world is not FaultBlind),
// selection consults the rail-health registry first: pinned sends fail
// over off dead rails, round-robin skips them, and striping re-weights
// the pieces by each surviving rail's bandwidth fraction so all rails
// finish together. Every deviation from the healthy decision is recorded
// as a CatFault trace event.
func (p *Proc) sendHCA(wdst, n int, o sendOpts) sim.Time {
	prm := p.w.prm
	srcNodeID := p.rs.node
	dstNodeID := p.w.ranks[wdst].node
	srcNode := &p.w.nodes[srcNodeID]
	dstNode := &p.w.nodes[dstNodeID]
	// A transfer occupies the same rail index at both ends, so a
	// heterogeneous pair is limited to the rails the weaker endpoint has.
	H := len(srcNode.hcas)
	if dh := len(dstNode.hcas); dh < H {
		H = dh
	}
	health := p.w.health
	consult := health.Faulty() && !p.w.faultBlind
	now := p.Now()

	rendezvous := sim.Duration(0)
	if n >= prm.RendezvousThreshold {
		rendezvous = prm.AlphaRendezvous
	}

	// Rails and piece sizes live in the frame for up to 8 rails.
	var railBuf, pieceBuf [8]int
	var rails, pieces []int
	switch {
	case o.rail >= 0:
		r := o.rail
		if r >= H {
			if !p.w.topo.Heterogeneous() {
				panic(fmt.Sprintf("mpi: rail %d out of range (H=%d)", o.rail, H))
			}
			// A planner pinned a rail the weaker endpoint of this
			// heterogeneous pair lacks: wrap onto the shared rails so the
			// schedule stays correct, and record the deviation.
			c := r % H
			p.trace(trace.CatFault, fmt.Sprintf("railclamp(rail%d->rail%d)", r, c), now, now, wdst, n)
			r = c
		}
		if consult && !health.Up(srcNodeID, r, now) ||
			consult && !health.Up(dstNodeID, r, now) {
			alt, up := health.bestRail(srcNodeID, dstNodeID, r, r, H, now)
			if up {
				p.trace(trace.CatFault, fmt.Sprintf("failover(rail%d->rail%d)", r, alt), now, now, wdst, n)
				r = alt
			} else {
				// Every rail is down: queue on the one that recovers
				// first; the resource's rate profile charges the wait.
				alt, _ = health.bestRail(srcNodeID, dstNodeID, r, -1, H, now)
				p.trace(trace.CatFault, fmt.Sprintf("raildown(wait rail%d)", alt), now, now, wdst, n)
				r = alt
			}
		}
		rails, pieces = append(railBuf[:0], r), append(pieceBuf[:0], n)
	case !o.noStripe && prm.ShouldStripe(n) && H > 1:
		if consult {
			rails, pieces = p.stripeByHealth(railBuf[:0], pieceBuf[:0], srcNodeID, dstNodeID, wdst, n, H, now)
		} else if scales := p.railScales(H); scales != nil {
			// Asymmetric rails: split in proportion to deliverable
			// bandwidth so every rail finishes its share together.
			rails, pieces = dropEmptyPieces(appendRails(railBuf[:0], H), netmodel.AppendRailChunkWeighted(pieceBuf[:0], n, scales))
		} else {
			rails = appendRails(railBuf[:0], H)
			pieces = netmodel.AppendRailChunk(pieceBuf[:0], n, H)
		}
	default:
		r := p.rs.railRR % H
		p.rs.railRR++
		if consult && !health.Up(srcNodeID, r, now) || consult && !health.Up(dstNodeID, r, now) {
			picked := -1
			for k := 1; k < H; k++ {
				c := (r + k) % H
				if health.LinkFraction(srcNodeID, dstNodeID, c, now) > 0 {
					picked = c
					break
				}
			}
			if picked >= 0 {
				p.trace(trace.CatFault, fmt.Sprintf("failover(rail%d->rail%d)", r, picked), now, now, wdst, n)
				r = picked
			} else {
				picked, _ = health.bestRail(srcNodeID, dstNodeID, r, -1, H, now)
				p.trace(trace.CatFault, fmt.Sprintf("raildown(wait rail%d)", picked), now, now, wdst, n)
				r = picked
			}
		}
		rails, pieces = append(railBuf[:0], r), append(pieceBuf[:0], n)
	}

	// Latency faults add a per-piece startup penalty whether or not
	// selection is health-aware — elevated latency is physical, not a
	// routing decision.
	var extra [8]sim.Duration
	extraLat := extra[:0]
	for _, r := range rails {
		extraLat = append(extraLat, health.LinkExtraLatency(srcNodeID, dstNodeID, r, now))
	}

	// On a structured fabric, pieces whose endpoints sit under different
	// switches additionally hold every shared link on their route — the
	// contention points of an oversubscribed tree or a dragonfly's
	// local/global channels. Same-switch (and loopback) traffic never
	// enters the fabric.
	path := p.w.routeOf(srcNodeID, dstNodeID)

	var end sim.Time
	var start sim.Time = -1
	for i, r := range rails {
		bw := prm.BWHCA
		if p.w.topo.RailBW != nil {
			bw = prm.RailBW(p.w.topo.RailScale(r))
		}
		d := p.w.perturb(prm.AlphaHCA+rendezvous+sim.FromSeconds(float64(pieces[i])/bw)) + extraLat[i]
		s, e := sim.AcquireTogether(d, srcNode.hcas[r].tx, dstNode.hcas[r].rx)
		srcNode.hcas[r].tx.MarkOwner(o.owner)
		dstNode.hcas[r].rx.MarkOwner(o.owner)
		for _, lk := range path {
			// The piece consumes each route link's capacity from the
			// moment it starts injecting; it is only delivered once every
			// (FIFO, aggregate-rate) fabric stage has carried it. On a
			// full-bisection fabric the links keep up and this never
			// extends the endpoint time; tapered links queue here.
			lkD := sim.FromSeconds(float64(pieces[i]) / lk.BW)
			if _, e2 := lk.Res.AcquireAfter(s, lkD); e2 > e {
				e = e2
			}
			lk.Res.MarkOwner(o.owner)
		}
		if start < 0 || s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	if p.w.tracer != nil {
		p.trace(trace.CatHCA, hcaSpanName(len(rails)), start, end, wdst, n)
	}
	return end
}

// hcaSpanNames are the trace names of a network send striped over k
// rails, "hca(xk)": every send records one, so the common widths are
// spelled out and nothing is formatted per message.
var hcaSpanNames = [...]string{"hca(x0)", "hca(x1)", "hca(x2)", "hca(x3)", "hca(x4)", "hca(x5)", "hca(x6)", "hca(x7)", "hca(x8)"}

func hcaSpanName(rails int) string {
	if rails < len(hcaSpanNames) {
		return hcaSpanNames[rails]
	}
	return "hca(x" + strconv.Itoa(rails) + ")"
}

// railScales returns the first H per-rail bandwidth scales, or nil when
// every rail runs at nominal rate (the homogeneous fast path).
func (p *Proc) railScales(H int) []float64 {
	if p.w.topo.RailBW == nil {
		return nil
	}
	return p.w.topo.RailBW[:H]
}

// appendRails appends [0..H) to dst.
func appendRails(dst []int, H int) []int {
	for r := 0; r < H; r++ {
		dst = append(dst, r)
	}
	return dst
}

// dropEmptyPieces removes zero-byte pieces so no startup cost is paid
// for rails a weighted split rounded down to nothing.
func dropEmptyPieces(rails, pieces []int) ([]int, []int) {
	outR, outP := rails[:0], pieces[:0]
	for i := range rails {
		if pieces[i] > 0 {
			outR = append(outR, rails[i])
			outP = append(outP, pieces[i])
		}
	}
	return outR, outP
}

// stripeByHealth plans a striped transfer over the surviving rails of the
// src->dst link: dead rails are skipped and each piece is sized in
// proportion to its rail's surviving bandwidth fraction (times its
// asymmetric-rail scale, when the cluster has one), so every rail
// finishes its share at the same moment despite unequal degradation. Any
// deviation from the healthy equal split is recorded as a CatFault event
// naming the piece layout. rails and pieces come in empty, on the
// caller's storage (its frame, up to 8 rails), and the plan is appended.
func (p *Proc) stripeByHealth(rails, pieces []int, srcNodeID, dstNodeID, wdst, n, H int, now sim.Time) ([]int, []int) {
	health := p.w.health
	scales := p.railScales(H)
	var fracBuf [8]float64
	fracs := fracBuf[:0]
	allHealthy := true
	for r := 0; r < H; r++ {
		f := health.LinkFraction(srcNodeID, dstNodeID, r, now)
		if f > 0 {
			rails = append(rails, r)
			fracs = append(fracs, f)
		}
		if f != 1 {
			allHealthy = false
		}
	}
	switch {
	case len(rails) == 0:
		// Nothing is up: fall back to the rail that recovers first and
		// let the rate profile charge the remaining outage.
		r, _ := health.bestRail(srcNodeID, dstNodeID, 0, -1, H, now)
		p.trace(trace.CatFault, fmt.Sprintf("raildown(wait rail%d)", r), now, now, wdst, n)
		return append(rails, r), append(pieces, n)
	case allHealthy && scales == nil:
		return rails, netmodel.AppendRailChunk(pieces, n, H)
	case allHealthy:
		// Every rail is up; only the hardware asymmetry shapes the split,
		// which is the expected plan — no fault event.
		return dropEmptyPieces(rails, netmodel.AppendRailChunkWeighted(pieces, n, scales))
	}
	weights := fracs
	if scales != nil {
		sub := make([]float64, len(rails))
		for i, r := range rails {
			sub[i] = scales[r]
		}
		weights = netmodel.RailWeights(fracs, sub)
	}
	pieces = netmodel.AppendRailChunkWeighted(pieces, n, weights)
	// Drop pieces rounded down to nothing so we don't pay startup costs
	// for empty transfers.
	rails, pieces = dropEmptyPieces(rails, pieces)
	var b strings.Builder
	for i := range rails {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "rail%d=%d", rails[i], pieces[i])
	}
	p.trace(trace.CatFault, "stripe("+b.String()+")", now, now, wdst, n)
	return rails, pieces
}

// Irecv posts a nonblocking receive for a message from comm rank src with
// the given tag. src may be AnySource. The match happens at Wait time.
func (p *Proc) Irecv(c *Comm, src, tag int) *Request {
	r := new(Request)
	p.irecv(r, c, src, tag)
	return r
}

// IrecvInto is Irecv into a request the caller owns (see IsendInto).
func (p *Proc) IrecvInto(r *Request, c *Comm, src, tag int) {
	p.irecv(r, c, src, tag)
}

func (p *Proc) irecv(r *Request, c *Comm, src, tag int) {
	wsrc := AnySource
	if src != AnySource {
		wsrc = c.WorldRank(src)
	}
	*r = Request{p: p, comm: c, src: wsrc, tag: tag, posted: p.Now()}
}

// Wait completes a request. For receives it blocks until a matching
// message has arrived and returns its payload; for sends it blocks until
// the transfer has left the machine and returns a zero Buf.
func (p *Proc) Wait(req *Request) Buf {
	if req.p != p {
		panic("mpi: Wait on another rank's request")
	}
	if req.done {
		return req.data
	}
	req.done = true
	if req.isSend {
		start := p.Now()
		p.sp.WaitUntil(req.end)
		p.trace(trace.CatWait, "wait-send", start, p.Now(), -1, 0)
		return Buf{}
	}
	start := p.Now()
	m := p.rs.mbox.GetMatch(p.sp, &received, req.comm.id, req.src, req.tag).(*message)
	src, data := m.src, m.data
	req.data = data
	// Nothing refers to the record any more: it goes back to the world,
	// cleared, so that it keeps no payload reachable while it waits.
	*m = message{}
	p.w.spare = append(p.w.spare, m)
	// Per-message completion overhead on the receiving CPU.
	if post := p.w.prm.AlphaPost; post > 0 {
		_, oe := p.rs.cpu.Acquire(post)
		p.sp.WaitUntil(oe)
	}
	// The blocking interval is wait time, not work: the transfer itself is
	// traced on the sender's lane (CMA copy or HCA occupation).
	p.trace(trace.CatWait, "recv-wait", start, p.Now(), src, data.Len())
	return data
}

// WaitInto completes a receive request into dst: it waits exactly as Wait
// does, then copies the payload into dst, or, when red is non-nil, has red
// fold it in. The payload's storage then goes back to the world, unless it
// is too short to be worth keeping, and a later send's snapshot reuses it,
// so red must not keep src. The request
// must be a receive nobody has waited yet; once WaitInto returns, it is
// finished and holds no payload.
func (p *Proc) WaitInto(req *Request, dst Buf, red func(p *Proc, dst, src Buf)) {
	if req.isSend || req.done {
		panic("mpi: WaitInto on a send or an already completed request")
	}
	data := p.Wait(req)
	if red != nil {
		red(p, dst, data)
	} else {
		dst.CopyFrom(data)
	}
	if cap(data.data) > keptPayload {
		req.data = Buf{}
		p.w.giveBack(data.data)
	}
}

// keptPayload is the length above which WaitInto gives a payload's array
// back. Keeping a shorter one would take a slice header in World.payloads
// (24 bytes on a 64-bit platform) at least as large as the array, and save
// no bytes.
const keptPayload = 24

// maxSparePayloads caps World.payloads. Without a cap, an array of a size
// no later send asks for (allgatherv's varying counts, a ring's uneven
// slices) would stay until the world ends and lengthen every scan. On the
// verify-payload pool (400 scenarios, up to 48 ranks), whose largest
// uncapped store held 390 arrays, 64 keeps 45 870 of the 45 884 reuses and
// allocates no more bytes; 16 loses 2 % of the reuses and adds 1.4 % to
// the campaign's bytes.
const maxSparePayloads = 64

// giveBack makes a payload array spare, newest last. A full store first
// drops its oldest array, so sizes nobody sends again age out.
func (w *World) giveBack(a []byte) {
	if len(w.payloads) == maxSparePayloads {
		w.payloads = slices.Delete(w.payloads, 0, 1)
	}
	w.payloads = append(w.payloads, a)
}

// snapshot is isend's private copy of a real payload, as Clone makes it,
// written into the newest spare array of exactly its size when there is
// one: a world allocates payload bytes for the messages it has in flight
// rather than for every message it sends. Taking an array out keeps the
// others in age order; the one taken is most often the newest.
func (w *World) snapshot(b Buf) Buf {
	for i := len(w.payloads) - 1; i >= 0 && len(b.data) > keptPayload; i-- {
		if a := w.payloads[i]; cap(a) == len(b.data) {
			w.payloads = slices.Delete(w.payloads, i, i+1)
			copy(a, b.data)
			return Buf{n: b.n, data: a}
		}
	}
	return b.Clone()
}

// Waitall completes a set of requests in order and returns the receive
// payloads positionally (zero Bufs for sends).
func (p *Proc) Waitall(reqs ...*Request) []Buf {
	out := make([]Buf, len(reqs))
	for i, r := range reqs {
		out[i] = p.Wait(r)
	}
	return out
}

// Send is a blocking send: it returns when the transfer completes.
func (p *Proc) Send(c *Comm, dst, tag int, data Buf, opts ...SendOption) {
	var req Request
	p.isend(&req, c, dst, tag, data, opts)
	p.Wait(&req)
}

// Recv is a blocking receive returning the matched payload.
func (p *Proc) Recv(c *Comm, src, tag int) Buf {
	var req Request
	p.irecv(&req, c, src, tag)
	return p.Wait(&req)
}

// SendRecv posts the receive, starts the send, and completes both — the
// classic ring-step primitive.
func (p *Proc) SendRecv(c *Comm, dst, sendTag int, data Buf, src, recvTag int, opts ...SendOption) Buf {
	var rreq, sreq Request
	p.irecv(&rreq, c, src, recvTag)
	p.isend(&sreq, c, dst, sendTag, data, opts)
	got := p.Wait(&rreq)
	p.Wait(&sreq)
	return got
}
