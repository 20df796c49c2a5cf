package verify

import (
	"testing"

	"mha/internal/topology"
	"mha/internal/trace"
)

// TestScheduleInterpreterPinned runs the schedule-interpreter variants
// (sched.Execute under sched-*, sched.ExecuteGoal under compose-*)
// through the full Check and compares each run's trace hash and makespan
// with values recorded before the interpreters stopped numbering other
// ranks' transfers: a rank posting a different tag, or posting in a
// different order, moves one or the other (or fails the oracle).
func TestScheduleInterpreterPinned(t *testing.T) {
	for _, tc := range []struct {
		sc       Scenario
		hash     uint64
		makespan int64
	}{
		{Scenario{Alg: "sched-ring", Cluster: topology.New(2, 4, 2), Msg: 4096}, 0xe5d141cdd8ac4649, 16068},
		{Scenario{Alg: "sched-rd", Cluster: topology.New(2, 4, 2), Msg: 4096}, 0x6236208d39e4e8b, 17326},
		{Scenario{Alg: "sched-mha", Cluster: topology.New(2, 4, 2), Msg: 4096}, 0xee70dffb91309f25, 7807},
		{Scenario{Alg: "sched-mha", Cluster: topology.New(4, 2, 2), Msg: 65536}, 0x89ec3975e9e8871d, 51736},
		{Scenario{Alg: "compose-ag", Cluster: topology.New(4, 2, 2), Msg: 65536}, 0x89ec3975e9e8871d, 51736},
		{Scenario{Alg: "compose-rs", Cluster: topology.New(2, 4, 2), Msg: 4096}, 0x90421a448cd88997, 24287},
		{Scenario{Alg: "compose-rs", Cluster: topology.New(4, 2, 2), Msg: 65536}, 0x9eb4f140e341d185, 213181},
	} {
		if vs := Check(tc.sc); len(vs) != 0 {
			t.Errorf("%s: %v", tc.sc.Spec(), vs)
			continue
		}
		rec := trace.New()
		res := RunOnce(tc.sc, rec, nil)
		if rec.Hash() != tc.hash || int64(res.Makespan) != tc.makespan {
			t.Errorf("%s: trace hash %#x makespan %d, recorded %#x and %d",
				tc.sc.Spec(), rec.Hash(), int64(res.Makespan), tc.hash, tc.makespan)
		}
	}
}
