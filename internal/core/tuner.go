package core

import (
	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// OffloadPoint is one sample of the offload-size/latency trade-off curve
// (the paper's Figure 5).
type OffloadPoint struct {
	// D is the offload in transfers per rank (fractional).
	D float64
	// Latency is the measured allgather completion time.
	Latency sim.Duration
}

// MeasureIntra runs one phantom-mode MHA-intra allgather of per-rank size
// m with offload d on a fresh single-node world and returns its latency
// (completion time of the slowest rank). Pass AutoOffload for the analytic
// d of Equation (1).
func MeasureIntra(topo topology.Cluster, prm *netmodel.Params, m int, d float64) sim.Duration {
	return measure(topo, prm, func(p *mpi.Proc, w *mpi.World) {
		MHAIntraAllgatherD(p, w.CommWorld(), mpi.Phantom(m), mpi.Phantom(m*p.Size()), d)
	})
}

// measure runs body on every rank of a fresh phantom world and returns
// the world's makespan. The bodies are the package's own collectives, so
// a failed run is a bug and panics.
func measure(topo topology.Cluster, prm *netmodel.Params, body func(p *mpi.Proc, w *mpi.World)) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true})
	if err := w.Run(func(p *mpi.Proc) { body(p, w) }); err != nil {
		panic(err)
	}
	return sim.Duration(w.Makespan())
}

// TuneOffload implements the tuning procedure of Section 3.1 / Figure 5:
// start from offloading everything to the adapters, gradually decrease the
// offload, and find the point where the downward and upward latency trends
// meet. It returns the best offload found and the measured curve. points
// controls the sweep resolution (>= 3; the sweep adds one refinement pass
// around the coarse minimum).
func TuneOffload(topo topology.Cluster, prm *netmodel.Params, m, points int) (float64, []OffloadPoint) {
	if points < 3 {
		points = 3
	}
	L := topo.Size() // single-node tuning: every rank participates
	maxD := float64(L - 1)
	if maxD == 0 {
		return 0, []OffloadPoint{{0, MeasureIntra(topo, prm, m, 0)}}
	}
	var curve []OffloadPoint
	sample := func(d float64) OffloadPoint {
		pt := OffloadPoint{D: d, Latency: MeasureIntra(topo, prm, m, d)}
		curve = append(curve, pt)
		return pt
	}
	// Coarse sweep from full offload down to none.
	best := sample(maxD)
	step := maxD / float64(points-1)
	for i := 1; i < points; i++ {
		pt := sample(maxD - float64(i)*step)
		if pt.Latency < best.Latency {
			best = pt
		}
	}
	// Refine once around the coarse minimum.
	lo, hi := best.D-step, best.D+step
	if lo < 0 {
		lo = 0
	}
	if hi > maxD {
		hi = maxD
	}
	fine := (hi - lo) / float64(points-1)
	if fine > 0 {
		for i := 0; i < points; i++ {
			pt := sample(lo + float64(i)*fine)
			if pt.Latency < best.Latency {
				best = pt
			}
		}
	}
	return best.D, curve
}

// MeasureInter runs one phantom-mode hierarchical allgather on a fresh
// world and returns its latency.
func MeasureInter(topo topology.Cluster, prm *netmodel.Params, m int, cfg InterConfig) sim.Duration {
	return measure(topo, prm, func(p *mpi.Proc, w *mpi.World) {
		MHAInterAllgatherCfg(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()), cfg)
	})
}

// MeasureProfileAllgather times an arbitrary profile's allgather on a
// fresh phantom world — the building block of every allgather figure.
func MeasureProfileAllgather(topo topology.Cluster, prm *netmodel.Params, m int, prof collectives.Profile) sim.Duration {
	return measure(topo, prm, func(p *mpi.Proc, w *mpi.World) {
		prof.Allgather(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
}

// MeasureProfileAllreduce times an arbitrary profile's allreduce of n
// bytes on a fresh phantom world.
func MeasureProfileAllreduce(topo topology.Cluster, prm *netmodel.Params, n int, prof collectives.Profile) sim.Duration {
	return measure(topo, prm, func(p *mpi.Proc, w *mpi.World) {
		prof.Allreduce(p, w, mpi.Phantom(n), collectives.SumF64())
	})
}
