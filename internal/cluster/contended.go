package cluster

import (
	"fmt"

	"mha/internal/collectives"
	"mha/internal/mpi"
)

// Contended returns an allgather built the way the scheduler runs jobs:
// the world is split into `groups` contiguous rank groups that each run
// their own sub-communicator ring allgather CONCURRENTLY — contending for
// rails and memory buses exactly like co-scheduled tenants — after which
// group leaders exchange their gathered windows and broadcast the
// assembled result within their groups. The net effect equals a world
// allgather byte-for-byte, so the verification harness's oracle and
// determinism checks apply unchanged while exercising the multi-tenant
// overlap paths (runtime CommNamed creation, per-comm epochs, shared-rail
// interleaving). internal/verify registers it as the cluster-contended-*
// scenario family.
func Contended(groups int) func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		n := w.Topo().Size()
		m := send.Len()
		g := groups
		if g > n {
			g = n
		}
		if g < 1 {
			g = 1
		}
		bounds := groupBounds(n, g)
		gi := groupOf(bounds, p.Rank())
		lo, hi := bounds[gi], bounds[gi+1]
		gc := w.CommNamed(fmt.Sprintf("contended.%d.g%d", g, gi), func() []int {
			ranks := make([]int, hi-lo)
			for i := range ranks {
				ranks[i] = lo + i
			}
			return ranks
		})
		// Phase 1 (overlapping across groups): gather the group's blocks
		// straight into this rank's window of recv.
		collectives.RingAllgather(p, gc, send, recv.Slice(lo*m, (hi-lo)*m))
		// Phase 2: group leaders trade windows so each holds the full
		// result. Windows differ in size when g does not divide n, so the
		// exchange is direct sends rather than an allgather.
		if gc.Rank(p) == 0 {
			lc := w.CommNamed(fmt.Sprintf("contended.%d.leaders", g), func() []int {
				leaders := make([]int, g)
				for j := 0; j < g; j++ {
					leaders[j] = bounds[j]
				}
				return leaders
			})
			ep := lc.Epoch(p)
			reqs := make([]*mpi.Request, 0, 2*(g-1))
			recvs := make([]*mpi.Request, g)
			for j := 0; j < g; j++ {
				if j == gi {
					continue
				}
				recvs[j] = p.Irecv(lc, j, mpi.Tag(ep, mpi.PhaseContended, j))
				reqs = append(reqs, p.Isend(lc, j, mpi.Tag(ep, mpi.PhaseContended, gi), recv.Slice(lo*m, (hi-lo)*m)))
			}
			for j := 0; j < g; j++ {
				if j == gi {
					continue
				}
				p.WaitInto(recvs[j], recv.Slice(bounds[j]*m, (bounds[j+1]-bounds[j])*m), nil)
			}
			for _, r := range reqs {
				p.Wait(r)
			}
		}
		// Phase 3: every leader broadcasts the assembled buffer inside its
		// group (again overlapping across groups).
		collectives.BinomialBcast(p, gc, 0, recv)
	}
}

// groupBounds partitions n ranks into g contiguous groups: bounds[i] is
// group i's first rank, bounds[g] == n. The first n%g groups get one
// extra rank.
func groupBounds(n, g int) []int {
	bounds := make([]int, g+1)
	base, extra := n/g, n%g
	for i := 0; i < g; i++ {
		bounds[i+1] = bounds[i] + base
		if i < extra {
			bounds[i+1]++
		}
	}
	return bounds
}

// groupOf returns which group a rank falls into.
func groupOf(bounds []int, rank int) int {
	for i := 0; i+1 < len(bounds); i++ {
		if rank < bounds[i+1] {
			return i
		}
	}
	return len(bounds) - 2
}
