package sched

import (
	"fmt"
	"slices"

	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// xferRef is one entry of a rank's transfer list: the transfer's index
// in its step and the tag step field it travels under, (step << 7) | q,
// where the transfer is the q-th of its step, in step order, between its
// ordered (src, dst) pair — which is why Validate caps schedules at 512
// steps and 128 same-step transfers per pair. The phase is
// mpi.PhaseSched. Each endpoint derives q by itself (number).
type xferRef struct {
	xi, tag int32
}

func (r xferRef) step() int { return int(r.tag >> 7) }

// Index is the interpreter's view of a schedule: every rank's own
// transfers — those it sends or receives — in step order and, within a
// step, in the step's order, each with its tag. Built once per schedule
// and world (Runner's memo, Simulate) and shared read-only by the ranks,
// it spares every rank a walk over every transfer of every step.
type Index struct {
	start []int32 // rank r's list is refs[start[r]:start[r+1]]
	refs  []xferRef
}

// NewIndex lists every rank's transfers of s.
func NewIndex(s *Schedule) *Index {
	n := s.Topo.Size()
	ix := &Index{start: make([]int32, n+1)}
	for si := range s.Steps {
		for xi := range s.Steps[si].Xfers {
			t := &s.Steps[si].Xfers[xi]
			ix.start[t.Src+1]++
			ix.start[t.Dst+1]++
		}
	}
	for r := 0; r < n; r++ {
		ix.start[r+1] += ix.start[r]
	}
	ix.refs = make([]xferRef, ix.start[n])
	next := slices.Clone(ix.start[:n])
	for si := range s.Steps {
		for xi := range s.Steps[si].Xfers {
			t := &s.Steps[si].Xfers[xi]
			ref := xferRef{xi: int32(xi), tag: int32(si << 7)}
			ix.refs[next[t.Src]] = ref
			next[t.Src]++
			ix.refs[next[t.Dst]] = ref
			next[t.Dst]++
		}
	}
	ord := make([]int32, 2*n)
	for r := 0; r < n; r++ {
		number(ix.own(r), s, r, ord)
	}
	return ix
}

// own is rank r's list.
func (ix *Index) own(r int) []xferRef { return ix.refs[ix.start[r]:ix.start[r+1]] }

// number completes the tags of rank me's list, whose entries carry their
// step alone: a transfer's q counts the transfers before it in its step
// between the same ordered (src, dst) pair. Source and destination both
// walk the step in order and both count exactly the transfers of their
// shared pair, so they arrive at the same q without looking at anyone
// else's. ord ([peer] sent to, [n+peer] received from) is zero on entry
// and on return.
func number(own []xferRef, s *Schedule, me int, ord []int32) {
	slot := func(ref xferRef) int {
		if t := &s.Steps[ref.step()].Xfers[ref.xi]; t.Src != me {
			return len(ord)/2 + t.Src
		} else {
			return t.Dst
		}
	}
	for i := 0; i < len(own); {
		j := i
		for si := own[i].step(); j < len(own) && own[j].step() == si; j++ {
			k := slot(own[j])
			own[j].tag |= ord[k]
			ord[k]++
		}
		for ; i < j; i++ {
			ord[slot(own[i])] = 0
		}
	}
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
//
// ix is the schedule's Index (NewIndex), which every rank of the world
// shares.
func Execute(p *mpi.Proc, w *mpi.World, s *Schedule, ix *Index, send, recv mpi.Buf) {
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

	c := w.CommWorld()
	runSteps(p, c, s, ix.own(c.Rank(p)), func(first, count, off, ln int) mpi.Buf {
		return recv.Slice(first*m+off, ln)
	}, nil)
}

// runSteps is the schedule interpreter: rank p's share of every step of
// s over the communicator c, whose ranks are the schedule's; own is the
// rank's list. window says where the rank keeps bytes [off, off+ln) of
// the block range [first, first+count) — the only thing Execute and
// ExecuteGoal disagree on — and red folds an arrived payload into its
// window for a reducing transfer (nil when the schedule may have none).
// Every payload is completed into its window with WaitInto, so its
// storage goes back to the world for a later send.
//
// Per step, the rank posts its receives and sends in the step's order
// (payloads are snapshotted at post time, so every send reads the
// pre-step state even when a receive of the same step would overwrite
// it), then completes receives and sends. Steps are rank-local: no
// global barrier separates them, so a step's CMA copies overlap a
// neighbor's rail transfers exactly as the hand-written overlapped
// designs do.
func runSteps(p *mpi.Proc, c *mpi.Comm, s *Schedule, own []xferRef,
	window func(first, count, off, ln int) mpi.Buf,
	red func(p *mpi.Proc, dst, src mpi.Buf)) {
	m := s.Msg
	me := c.Rank(p)
	epoch := c.Epoch(p)
	// The step's requests, one per entry of its list. Most ranks have a
	// few transfers a step, which fit on the stack.
	var small [4]mpi.Request
	reqs := small[:]
	for si := range s.Steps {
		st := &s.Steps[si]
		j := 0
		for j < len(own) && own[j].step() == si {
			j++
		}
		mine := own[:j]
		own = own[j:]
		if len(mine) > len(reqs) {
			reqs = make([]mpi.Request, len(mine))
		}
		for k, ref := range mine {
			t := &st.Xfers[ref.xi]
			tag := mpi.Tag(epoch, mpi.PhaseSched, int(ref.tag))
			r := &reqs[k]
			if t.Dst == me {
				p.IrecvInto(r, c, t.Src, tag)
				continue
			}
			buf := window(t.First, t.Count, t.Off, t.Len)
			switch t.Via {
			case ViaPull:
				p.IsendInto(r, c, t.Dst, tag, buf, mpi.ByRef())
			case ViaHCA:
				p.IsendInto(r, c, t.Dst, tag, buf, mpi.ViaHCA())
			case ViaRail:
				p.IsendInto(r, c, t.Dst, tag, buf, mpi.ViaRail(t.Rail))
			default:
				p.IsendInto(r, c, t.Dst, tag, buf)
			}
		}
		for k, ref := range mine {
			t := &st.Xfers[ref.xi]
			if t.Dst != me {
				continue
			}
			var fold func(p *mpi.Proc, dst, src mpi.Buf)
			if t.Red {
				if red == nil {
					panic("sched: schedule has reducing transfers but no reducer was supplied")
				}
				fold = red
			}
			p.WaitInto(&reqs[k], window(t.First, t.Count, t.Off, t.Len), fold)
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
		for k, ref := range mine {
			if st.Xfers[ref.xi].Src == me {
				p.Wait(&reqs[k])
			}
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
//
// ix is the schedule's Index, which every rank of the comm shares.
func ExecuteGoal(p *mpi.Proc, c *mpi.Comm, s *Schedule, ix *Index, g *Goal,
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
	own := ix.own(me)
	for _, ref := range own {
		t := &s.Steps[ref.step()].Xfers[ref.xi]
		mark(t.First, t.Count)
	}
	for _, st := range s.Steps {
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

	runSteps(p, c, s, own, window, red)

	// Deliver the wanted ranges to the caller's buffers.
	for _, rng := range g.Want[me] {
		p.LocalCopy(out(rng), window(rng.First, rng.Count, 0, rng.Count*m))
	}
}

// ChargeRed is the reducer stand-in for phantom measurement runs: it
// charges the fold's compute time at netmodel.BWReduce and moves no
// bytes.
func ChargeRed(p *mpi.Proc, dst, src mpi.Buf) {
	p.Compute(sim.FromSeconds(float64(src.Len()) / netmodel.BWReduce))
}

// Runner adapts a schedule constructor to the verify.RunFn shape. The
// schedule and its Index are built once per world for the world's actual
// topology and the message size in use (mpi.PerWorld), and every rank
// executes that one read-only pair: constructors are deterministic pure functions of
// (topology, msg), so a per-rank build would only repeat the work —
// Build plus Validate cost more than executing a rank's share at
// verification scales. A constructor that panics does so on the first
// rank to ask.
func Runner(build func(topo topology.Cluster, msg int) *Schedule) func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	type indexed struct {
		s  *Schedule
		ix *Index
	}
	built := mpi.PerWorld(func(w *mpi.World, msg int) indexed {
		s := build(w.Topo(), msg)
		return indexed{s, NewIndex(s)}
	})
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		b := built(w, send.Len())
		Execute(p, w, b.s, b.ix, send, recv)
	}
}

// Simulate runs the schedule on a fresh phantom world and returns the
// makespan (the latest rank-finish time). It is the measured counterpart
// of Analyze's Cost: same plan, real contention.
func Simulate(topo topology.Cluster, prm *netmodel.Params, s *Schedule) (sim.Duration, error) {
	return SimulateHealth(topo, prm, s, nil)
}

// SimulateGoal is Simulate for a goal-based schedule: every rank runs
// ExecuteGoal with phantom buffers and the ChargeRed reducer.
func SimulateGoal(topo topology.Cluster, prm *netmodel.Params, s *Schedule, g *Goal) (sim.Duration, error) {
	phantom := func(rng Range) mpi.Buf { return mpi.Phantom(rng.Count * s.Msg) }
	ix := NewIndex(s)
	return simulate(topo, prm, nil, func(p *mpi.Proc, w *mpi.World) {
		ExecuteGoal(p, w.CommWorld(), s, ix, g, phantom, phantom, ChargeRed)
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
