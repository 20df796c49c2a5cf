package cluster

import (
	"math/rand"

	"mha/internal/sim"
	"mha/internal/topology"
)

// The most ranks a job of a collective lowers for (lowerPlan): a flat
// reduce-scatter is a ring of n-1 steps, and a schedule has at most 512;
// a flat alltoall has n² blocks, and a schedule at most 2^20.
const (
	maxReduceScatterRanks = 513
	maxAlltoallRanks      = 1 << 10
)

// RandomJobs generates a seeded mixed workload of n jobs for a topology:
// mostly allgathers with a tail of allreduces, bcasts and the
// compose-derived collectives (reduce-scatter, alltoall, gather,
// scatter), payloads from 4 KB to 256 KB, rank counts from 2 to the
// world size, arrivals uniform over the horizon, priorities 0-3. A
// reduce-scatter or alltoall drawn wider than it lowers for is narrowed
// to the widest that does, after the draw, so the stream of draws is the
// same on every world. The same seed always yields the same stream, so
// scheduler runs over generated workloads stay reproducible, and every
// workload passes Validate.
func RandomJobs(seed int64, n int, topo topology.Cluster, horizon sim.Duration) []JobSpec {
	rng := rand.New(rand.NewSource(seed))
	size := topo.Size()
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	out := make([]JobSpec, n)
	for i := range out {
		coll := Allgather
		switch v := rng.Float64(); {
		case v < 0.40:
			coll = Allgather
		case v < 0.60:
			coll = Allreduce
		case v < 0.70:
			coll = Bcast
		case v < 0.80:
			coll = ReduceScatter
		case v < 0.90:
			coll = Alltoall
		case v < 0.95:
			coll = Gather
		default:
			coll = Scatter
		}
		ranks := 2
		if size > 2 {
			ranks = 2 + rng.Intn(size-1)
		}
		switch coll {
		case ReduceScatter:
			ranks = min(ranks, maxReduceScatterRanks)
		case Alltoall:
			ranks = min(ranks, maxAlltoallRanks)
		}
		arrival := sim.Time(0)
		if horizon > 0 {
			arrival = sim.Time(rng.Int63n(int64(horizon) + 1))
		}
		out[i] = JobSpec{
			ID:       i,
			Coll:     coll,
			Msg:      sizes[rng.Intn(len(sizes))],
			Ranks:    ranks,
			Arrival:  arrival,
			Priority: rng.Intn(4),
		}
	}
	return out
}
