// Package bench is the evaluation harness: one registered experiment per
// table and figure of the paper's evaluation (Section 5), each printing
// the same rows/series the paper reports, plus the ablation studies called
// out in DESIGN.md. The `mha bench` tool and the repository-level
// testing.B benchmarks both drive this package.
package bench

import (
	"fmt"

	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// PtPtLatency measures the one-way latency of a single message of m bytes
// between rank 0 and rank 1 of the given cluster (two ranks total:
// same-node for intra-node runs, one per node for inter-node runs).
func PtPtLatency(topo topology.Cluster, prm *netmodel.Params, m int, opts ...mpi.SendOption) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	var arrived sim.Time
	err := w.Run(func(p *mpi.Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			p.Send(c, 1, 0, mpi.Phantom(m), opts...)
		case 1:
			p.Recv(c, 0, 0)
			arrived = p.Now()
		}
	})
	if err != nil {
		panic(err)
	}
	return sim.Duration(arrived)
}

// PtPtBandwidth reports the achieved point-to-point bandwidth in MB/s for
// message size m, in the OSU bandwidth-test style: a window of back-to-back
// nonblocking sends so startup costs amortize. Intra-node transfers use a
// window of 1: CMA copies serialize through the sending CPU, so a deeper
// window adds nothing real but would inflate the concurrency gauge.
func PtPtBandwidth(topo topology.Cluster, prm *netmodel.Params, m int, opts ...mpi.SendOption) float64 {
	window := 64
	if topo.Nodes == 1 {
		window = 1
	}
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	var done sim.Time
	err := w.Run(func(p *mpi.Proc) {
		c := w.CommWorld()
		switch p.Rank() {
		case 0:
			reqs := make([]*mpi.Request, window)
			for i := range reqs {
				reqs[i] = p.Isend(c, 1, i, mpi.Phantom(m), opts...)
			}
			p.Waitall(reqs...)
		case 1:
			reqs := make([]*mpi.Request, window)
			for i := range reqs {
				reqs[i] = p.Irecv(c, 0, i)
			}
			p.Waitall(reqs...)
			done = p.Now()
		}
	})
	if err != nil {
		panic(err)
	}
	bytes := float64(window) * float64(m)
	return bytes / sim.Duration(done).Seconds() / 1e6
}

// makespan runs body on every rank of w and returns the latest rank
// finish: what every latency in this package means. The bodies are
// built-in collectives on built-in shapes, so a failed run is a bug and
// panics.
func makespan(w *mpi.World, body func(p *mpi.Proc)) sim.Duration {
	if err := w.Run(body); err != nil {
		panic(err)
	}
	return sim.Duration(w.Makespan())
}

// AllgatherLatency measures one allgather of m bytes per rank under the
// given profile.
func AllgatherLatency(topo topology.Cluster, prm *netmodel.Params, m int, prof collectives.Profile) sim.Duration {
	return core.MeasureProfileAllgather(topo, prm, m, prof)
}

// AllreduceLatency measures one allreduce of n total bytes under the given
// profile. n is padded up to a multiple of 8*ranks for uniform chunking.
func AllreduceLatency(topo topology.Cluster, prm *netmodel.Params, n int, prof collectives.Profile) sim.Duration {
	unit := 8 * topo.Size()
	n = (n + unit - 1) / unit * unit
	return core.MeasureProfileAllreduce(topo, prm, n, prof)
}

// Profiles returns the three compared implementations in the paper's
// presentation order.
func Profiles() []collectives.Profile {
	return []collectives.Profile{collectives.HPCX(), collectives.MVAPICH2X(), core.Profile()}
}

// Improvement formats the latency reduction of new vs old as the paper
// quotes it ("X% better"): 1 - new/old.
func Improvement(old, new sim.Duration) string {
	if old <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", (1-float64(new)/float64(old))*100)
}

// SizeLabel renders byte sizes the way the paper's axes do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
