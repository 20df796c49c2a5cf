package collectives

import (
	"mha/internal/mpi"
)

// A Profile stands in for one MPI library's collective selection logic: a
// named set of message-size-dependent algorithm choices for Allgather and
// Allreduce. The two profiles below model the comparison targets of the
// paper's evaluation. They necessarily capture the documented, observable
// behavior of those libraries (flat versus two-level selection, striping at
// the point-to-point level) rather than their exact internal tuning tables.
type Profile struct {
	// Name identifies the profile in benchmark output.
	Name string
	// Allgather runs the profile's allgather over the world communicator.
	Allgather func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)
	// Allreduce runs the profile's in-place allreduce over the world
	// communicator.
	Allreduce func(p *mpi.Proc, w *mpi.World, buf mpi.Buf, red Reducer)
}

// Allgather algorithm switch points (bytes per rank contribution).
const (
	// smallAllgather: below this, log-step algorithms win on latency.
	smallAllgather = 8 << 10
	// smallAllreduce: below this, recursive doubling wins for allreduce.
	smallAllreduce = 16 << 10
)

// HPCX models NVIDIA HPC-X (an Open MPI variant): flat algorithms with
// multirail striping only at the point-to-point level — Bruck for small
// messages, recursive doubling for medium power-of-two worlds, and the
// flat ring for large messages, where the intra-node hops become the
// bottleneck the paper's Figure 2 shows.
func HPCX() Profile {
	return Profile{
		Name: "HPC-X",
		Allgather: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			if send.Len() < smallAllgather {
				BruckAllgather(p, w.CommWorld(), send, recv)
				return
			}
			RingAllgather(p, w.CommWorld(), send, recv)
		},
		Allreduce: func(p *mpi.Proc, w *mpi.World, buf mpi.Buf, red Reducer) {
			c := w.CommWorld()
			if buf.Len() < smallAllreduce {
				RDAllreduce(p, c, buf, red)
				return
			}
			RingAllreduce(p, c, buf, red)
		},
	}
}

// MVAPICH2X models MVAPICH2-X: recursive doubling for small messages and
// the two-level single-leader design with sequential phases (Kandalla et
// al.) for large ones — hierarchical, but without the multi-HCA-aware
// phase 1 or the phase-2/3 overlap the paper adds.
func MVAPICH2X() Profile {
	return Profile{
		Name: "MVAPICH2-X",
		Allgather: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			if send.Len() < smallAllgather {
				RDAllgather(p, w.CommWorld(), send, recv)
				return
			}
			KandallaAllgather(p, w, send, recv)
		},
		Allreduce: func(p *mpi.Proc, w *mpi.World, buf mpi.Buf, red Reducer) {
			c := w.CommWorld()
			if buf.Len() < smallAllreduce {
				RDAllreduce(p, c, buf, red)
				return
			}
			RingAllreduce(p, c, buf, red)
		},
	}
}
