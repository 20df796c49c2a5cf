package compose

import (
	"fmt"

	"mha/internal/mpi"
	"mha/internal/sched"
)

// MsgOf recovers the per-block payload from a collective's send buffer
// length (the inverse of Geometry's sendLen).
func MsgOf(coll Collective, n, sendLen int) int {
	switch coll {
	case Allgather, Gather, Bcast:
		return sendLen
	default:
		return sendLen / n
	}
}

// Runner adapts a composition to the verify harness's run signature:
// the composition is lowered at run time against the world's machine —
// once per world and message size (mpi.PerWorld), all ranks executing
// the same read-only plan and its schedule's sched.Index — and run on
// the world communicator. Lowering uses the default model parameters,
// like the hand-written sched variants, so the model-derived choices
// (the allgather offload count) match byte for byte. A lowering error
// panics on every rank that asks.
func Runner(comp Composition) func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	type lowered struct {
		plan *Plan
		ix   *sched.Index
		err  error
	}
	lower := mpi.PerWorld(func(w *mpi.World, m int) lowered {
		plan, err := Lower(comp, NewHierarchy(w.Topo()), m, nil)
		if err != nil {
			return lowered{err: err}
		}
		return lowered{plan, sched.NewIndex(plan.Sched), nil}
	})
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		l := lower(w, MsgOf(comp.Coll, w.Topo().Size(), send.Len()))
		if l.err != nil {
			panic(fmt.Sprintf("%v (at run time)", l.err))
		}
		ExecutePlan(p, w, l.plan, l.ix, send, recv)
	}
}

// ExecutePlan runs a lowered plan on the world communicator.
// Allgather plans go through the plain schedule interpreter — their
// goal is the interpreter's native contract — so a re-derived allgather
// is trace-identical to its hand-lowered counterpart; everything else
// runs under the goal interpreter with the ByteSum fold. ix is the plan
// schedule's sched.Index.
func ExecutePlan(p *mpi.Proc, w *mpi.World, plan *Plan, ix *sched.Index, send, recv mpi.Buf) {
	if plan.Comp.Coll == Allgather {
		sched.Execute(p, w, plan.Sched, ix, send, recv)
		return
	}
	ExecutePlanOn(p, w.CommWorld(), plan, ix, send, recv)
}

// ExecutePlanOn runs a lowered plan on an arbitrary communicator (the
// cluster scheduler's jobs run flat plans on sub-communicators this
// way). send and recv follow the collective's Geometry for the
// communicator size; schedule ranks are communicator ranks. ix is as in
// ExecutePlan.
func ExecutePlanOn(p *mpi.Proc, c *mpi.Comm, plan *Plan, ix *sched.Index, send, recv mpi.Buf) {
	n := plan.Sched.Topo.Size()
	m := plan.Msg
	coll := plan.Comp.Coll
	init := func(rng sched.Range) mpi.Buf {
		// Every collective contributes one contiguous range that is
		// exactly the send buffer.
		return send.Slice(0, rng.Count*m)
	}
	out := func(rng sched.Range) mpi.Buf {
		if coll == Alltoall {
			// Want[me] is the singleton chunk s*n+me per source s, landing
			// at recv offset s*m.
			return recv.Slice(rng.First/n*m, m)
		}
		return recv.Slice(0, rng.Count*m)
	}
	sched.ExecuteGoal(p, c, plan.Sched, ix, plan.Goal, init, out, Fold)
}
