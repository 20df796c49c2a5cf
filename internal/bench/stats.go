package bench

import (
	"fmt"
	"math"

	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Stats summarizes a sample of measurements (used by the noise-robustness
// studies, where the simulator's seeded jitter produces distributions).
type Stats struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes sample statistics (population std for N == 1 is 0).
func Summarize(xs []float64) Stats {
	s := Stats{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

// AllgatherLatencySeeded measures one allgather under a specific jitter
// seed (Params.Jitter controls the noise amplitude).
func AllgatherLatencySeeded(topo topology.Cluster, prm *netmodel.Params, m int,
	prof collectives.Profile, seed int64) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topo, Params: prm, Phantom: true, Seed: seed})
	return makespan(w, func(p *mpi.Proc) {
		prof.Allgather(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
}

// NoisyAllgather sweeps seeds and returns the latency distribution in
// microseconds.
func NoisyAllgather(topo topology.Cluster, prm *netmodel.Params, m int,
	prof collectives.Profile, seeds int) Stats {
	xs := make([]float64, seeds)
	for s := 0; s < seeds; s++ {
		xs[s] = AllgatherLatencySeeded(topo, prm, m, prof, int64(s)).Micros()
	}
	return Summarize(xs)
}
