package sched

import (
	"fmt"

	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// phaseSched is the tag phase id of schedule-interpreter messages.
// Phases 0-8 belong to internal/collectives and 10-11 to internal/core;
// a distinct id keeps traces and tag dumps unambiguous. The 16-bit step
// field carries (step index << 7) | q, where the transfer is the q-th of
// its step, in step order, between its ordered (src, dst) pair — which
// is why Validate caps schedules at 512 steps and 128 same-step
// transfers per pair. Each endpoint derives q by itself (pairOrdinals).
const phaseSched = 12

// pairOrdinals is one rank's tag numbering for the step it is in: how
// many transfers it has posted so far to each peer ([peer]) and from
// each peer ([n+peer]). Source and destination of a transfer both walk
// the step's list in order and both count exactly the transfers of their
// shared ordered pair, so they arrive at the same q without looking at —
// or counting — anyone else's transfers. One value of length 2n serves a
// whole Execute call, cleared at the start of each step.
type pairOrdinals []int

// tag returns the message tag of t, a transfer of step si that rank me
// sends or receives, and advances that pair's ordinal.
func (o pairOrdinals) tag(epoch, si, me int, t *Transfer) int {
	k := t.Dst
	if t.Src != me {
		k = len(o)/2 + t.Src
	}
	q := o[k]
	o[k] = q + 1
	return mpi.Tag(epoch, phaseSched, si<<7|q)
}

// Execute runs the schedule on the mpi runtime as this rank's share of
// an allgather: send is the rank's contribution (Msg bytes), recv the
// full result (Msg * Size bytes). All ranks must call it, like any
// collective. The schedule must match the world's topology.
//
// The receive buffer is the degenerate arena of ExecuteGoal: every block
// held, block b at byte b*Msg, nothing staged out at the end. A schedule
// with reducing transfers has no reducer here and panics, as in
// ExecuteGoal.
//
// Execute assumes a schedule Analyze accepts; running an invalid one
// may deadlock the simulation (which the engine reports) or produce
// wrong bytes (which verification catches), but never corrupts the
// runtime.
func Execute(p *mpi.Proc, w *mpi.World, s *Schedule, send, recv mpi.Buf) {
	topo := w.Topo()
	if topo.Nodes != s.Topo.Nodes || topo.PPN != s.Topo.PPN ||
		topo.HCAs != s.Topo.HCAs || topo.Layout != s.Topo.Layout {
		panic(fmt.Sprintf("sched: schedule for %v executed on %v", s.Topo, topo))
	}
	m := s.Msg
	if send.Len() != m || recv.Len() != m*p.Size() {
		panic(fmt.Sprintf("sched: buffer sizes (%d, %d) do not match schedule msg %d on %d ranks",
			send.Len(), recv.Len(), m, p.Size()))
	}

	// Own contribution into place first, like every other variant.
	p.LocalCopy(recv.Slice(p.Rank()*m, m), send)

	runSteps(p, w.CommWorld(), s, func(first, count, off, ln int) mpi.Buf {
		return recv.Slice(first*m+off, ln)
	}, nil)
}

// runSteps is the schedule interpreter: rank p's share of every step of
// s over the communicator c, whose ranks are the schedule's. window says
// where the rank keeps bytes [off, off+ln) of the block range [first,
// first+count) — the only thing Execute and ExecuteGoal disagree on —
// and red folds an arrived payload into its window for a reducing
// transfer (nil when the schedule may have none). Every payload is
// completed into its window with WaitInto, so its storage goes back to the
// world for a later send.
//
// Per step, the rank posts its receives, posts its sends (payloads are
// snapshotted at post time, so every send reads the pre-step state even
// when a receive of the same step would overwrite it), then completes
// receives and sends. Steps are rank-local: no global barrier separates
// them, so a step's CMA copies overlap a neighbor's rail transfers
// exactly as the hand-written overlapped designs do.
func runSteps(p *mpi.Proc, c *mpi.Comm, s *Schedule,
	window func(first, count, off, ln int) mpi.Buf,
	red func(p *mpi.Proc, dst, src mpi.Buf)) {
	type pendingRecv struct {
		req *mpi.Request
		t   *Transfer
	}
	m := s.Msg
	me := c.Rank(p)
	epoch := c.Epoch(p)
	ord := make(pairOrdinals, 2*c.Size())
	var recvs []pendingRecv
	var sends []*mpi.Request
	for si := range s.Steps {
		st := &s.Steps[si]
		// A rank walks the whole step but only acts on — and only numbers —
		// the transfers it sends or receives.
		clear(ord)
		recvs, sends = recvs[:0], sends[:0]
		for xi := range st.Xfers {
			t := &st.Xfers[xi]
			if t.Dst != me && t.Src != me {
				continue
			}
			tag := ord.tag(epoch, si, me, t)
			if t.Dst == me {
				recvs = append(recvs, pendingRecv{p.Irecv(c, t.Src, tag), t})
			}
			if t.Src == me {
				buf := window(t.First, t.Count, t.Off, t.Len)
				switch t.Via {
				case ViaPull:
					sends = append(sends, p.Isend(c, t.Dst, tag, buf, mpi.ByRef()))
				case ViaHCA:
					sends = append(sends, p.Isend(c, t.Dst, tag, buf, mpi.ViaHCA()))
				case ViaRail:
					sends = append(sends, p.Isend(c, t.Dst, tag, buf, mpi.ViaRail(t.Rail)))
				default:
					sends = append(sends, p.Isend(c, t.Dst, tag, buf))
				}
			}
		}
		for _, pr := range recvs {
			t := pr.t
			var fold func(p *mpi.Proc, dst, src mpi.Buf)
			if t.Red {
				if red == nil {
					panic("sched: schedule has reducing transfers but no reducer was supplied")
				}
				fold = red
			}
			p.WaitInto(pr.req, window(t.First, t.Count, t.Off, t.Len), fold)
			if t.Via == ViaPull {
				// ByRef handoff: the reader performs (and pays for) the
				// actual copy out of the peer's buffer. A pull never
				// reduces, so the bytes, which move in no virtual time,
				// may land before the charge.
				p.ChargeCMA(t.Len)
			}
		}
		for _, cp := range st.Copies {
			if cp.Rank == me {
				p.ChargeCopy(cp.Count * m)
			}
		}
		for _, sr := range sends {
			p.Wait(sr)
		}
	}
}

// ExecuteGoal runs a goal-based schedule (see Goal) as this rank's
// share of a derived collective over the communicator c. The schedule's
// ranks are comm ranks, so sub-communicator plans work; only the sizes
// must agree (a plan lowered for a flat virtual topology may run on a
// comm whose ranks span nodes — the runtime routes each message by the
// real machine, the plan's pricing is simply approximate there).
//
// init supplies the caller's contiguous buffer for each of the rank's
// Init ranges, and out the destination buffer for each Want range; both
// are copied through a private arena so the caller's send buffer is
// never aliased or clobbered. red folds an arrived payload into the
// arena for reducing transfers (required iff the schedule contains
// any); it must charge its own compute time, tolerate phantom buffers
// and keep no reference to src, whose storage a later send reuses
// (mpi.Proc.WaitInto).
//
// Every transfer window must stay inside one contiguous run of the
// rank's touched blocks — lowerings guarantee this by construction, and
// a violation is a planning bug, reported by panic.
func ExecuteGoal(p *mpi.Proc, c *mpi.Comm, s *Schedule, g *Goal,
	init func(r Range) mpi.Buf,
	out func(r Range) mpi.Buf,
	red func(p *mpi.Proc, dst, src mpi.Buf)) {
	n := c.Size()
	if s.Topo.Size() != n {
		panic(fmt.Sprintf("sched: schedule for %d ranks executed on a %d-rank comm", s.Topo.Size(), n))
	}
	m := s.Msg
	nb := s.Blocks()
	me := c.Rank(p)

	// The arena holds every block this rank touches, packed by block
	// index so contiguous block ranges stay contiguous in memory.
	touched := make([]bool, nb)
	mark := func(first, count int) {
		for b := first; b < first+count; b++ {
			touched[b] = true
		}
	}
	for _, rng := range g.Init[me] {
		mark(rng.First, rng.Count)
	}
	for _, rng := range g.Want[me] {
		mark(rng.First, rng.Count)
	}
	for _, st := range s.Steps {
		for _, t := range st.Xfers {
			if t.Src == me || t.Dst == me {
				mark(t.First, t.Count)
			}
		}
		for _, cp := range st.Copies {
			if cp.Rank == me {
				mark(cp.First, cp.Count)
			}
		}
	}
	arenaOff := make([]int, nb)
	total := 0
	for b, on := range touched {
		if on {
			arenaOff[b] = total
			total++
		} else {
			arenaOff[b] = -1
		}
	}
	arena := mpi.Make(total*m, p.World().Phantom())
	window := func(first, count, off, ln int) mpi.Buf {
		base := arenaOff[first]
		if base < 0 || arenaOff[first+count-1] != base+count-1 {
			panic(fmt.Sprintf("sched: rank %d: block range [%d,%d) not contiguous in its arena", me, first, first+count))
		}
		return arena.Slice(base*m+off, ln)
	}

	// Stage initial blocks, like Execute's own-contribution LocalCopy.
	for _, rng := range g.Init[me] {
		p.LocalCopy(window(rng.First, rng.Count, 0, rng.Count*m), init(rng))
	}

	runSteps(p, c, s, window, red)

	// Deliver the wanted ranges to the caller's buffers.
	for _, rng := range g.Want[me] {
		p.LocalCopy(out(rng), window(rng.First, rng.Count, 0, rng.Count*m))
	}
}

// ChargeRed is the reducer stand-in for phantom measurement runs: it
// charges the byte-wise fold's compute time (the analyzer's reduceBW)
// and moves no bytes.
func ChargeRed(p *mpi.Proc, dst, src mpi.Buf) {
	p.Compute(sim.FromSeconds(float64(src.Len()) / reduceBW))
}

// Runner adapts a schedule constructor to the verify.RunFn shape. The
// schedule is built once per world for the world's actual topology and
// the message size in use (mpi.PerWorld), and every rank executes that
// one read-only value: constructors are deterministic pure functions of
// (topology, msg), so a per-rank build would only repeat the work —
// Build plus Validate cost more than executing a rank's share at
// verification scales. A constructor that panics does so on the first
// rank to ask.
func Runner(build func(topo topology.Cluster, msg int) *Schedule) func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	built := mpi.PerWorld(func(w *mpi.World, msg int) *Schedule { return build(w.Topo(), msg) })
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		Execute(p, w, built(w, send.Len()), send, recv)
	}
}

// Simulate runs the schedule on a fresh phantom world and returns the
// makespan (the latest rank-finish time). It is the measured counterpart
// of Analyze's Cost: same plan, real contention.
func Simulate(topo topology.Cluster, prm *netmodel.Params, s *Schedule) (sim.Duration, error) {
	return simulate(topo, prm, nil, phantomAllgather(s))
}

// phantomAllgather is the rank body Simulate and SimulateHealth time.
func phantomAllgather(s *Schedule) func(p *mpi.Proc, w *mpi.World) {
	return func(p *mpi.Proc, w *mpi.World) {
		Execute(p, w, s, mpi.Phantom(s.Msg), mpi.Phantom(s.Msg*p.Size()))
	}
}

// SimulateGoal is Simulate for a goal-based schedule: every rank runs
// ExecuteGoal with phantom buffers and the ChargeRed reducer.
func SimulateGoal(topo topology.Cluster, prm *netmodel.Params, s *Schedule, g *Goal) (sim.Duration, error) {
	phantom := func(rng Range) mpi.Buf { return mpi.Phantom(rng.Count * s.Msg) }
	return simulate(topo, prm, nil, func(p *mpi.Proc, w *mpi.World) {
		ExecuteGoal(p, w.CommWorld(), s, g, phantom, phantom, ChargeRed)
	})
}

// simulate runs body on every rank of a fresh phantom world, optionally
// under a fault schedule, and returns the world's makespan.
func simulate(topo topology.Cluster, prm *netmodel.Params, fsched *faults.Schedule,
	body func(p *mpi.Proc, w *mpi.World)) (sim.Duration, error) {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true, Faults: fsched})
	if err := w.Run(func(p *mpi.Proc) { body(p, w) }); err != nil {
		return 0, err
	}
	return sim.Duration(w.Makespan()), nil
}
