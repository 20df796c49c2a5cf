//go:build sweep

package cluster

import (
	"testing"

	"mha/internal/sim"
	"mha/internal/topology"
)

// TestRandomWorkloadsValidateOnLargeWorlds: every workload of seeds 1-50
// on 32x32x2 passes validate, which lowers each job, and the alltoall
// limit RandomJobs narrows to is the lowering's own. Alltoalls of up to
// 1 024 ranks take some fifteen seconds to lower, so CI runs it in a step
// of its own:
//
//	go test -tags sweep ./internal/cluster -run TestRandomWorkloadsValidateOnLargeWorlds
func TestRandomWorkloadsValidateOnLargeWorlds(t *testing.T) {
	topo := topology.New(32, 32, 2)
	for seed := int64(1); seed <= 50; seed++ {
		jobs := RandomJobs(seed, 8, topo, sim.Duration(sim.Millisecond))
		if _, err := validate(Config{Topo: topo}, jobs); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	for ranks, ok := range map[int]bool{maxAlltoallRanks: true, maxAlltoallRanks + 1: false} {
		if _, err := lowerPlan(JobSpec{Coll: Alltoall, Ranks: ranks, Msg: 4 << 10}); (err == nil) != ok {
			t.Errorf("an alltoall of %d ranks lowers with error %v", ranks, err)
		}
	}
}
