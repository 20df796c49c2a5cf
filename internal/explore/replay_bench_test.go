package explore

import "testing"

// replayOptions is the benchmark workload's shape (benchmark/explore_dpor.go)
// at a replay count a test can afford.
func replayOptions(alg string, replays int) Options {
	return Options{Algs: []string{alg}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, MaxExecs: replays}
}

// BenchmarkExploreReplay is one op = 2 000 replays of rd and 2 000 of
// sched-mha on 2x2x2: ns/op / 4000 is the cost of a replay, allocs/op /
// 4000 what TestReplayAllocFence fences.
func BenchmarkExploreReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, alg := range []string{"rd", "sched-mha"} {
			rep, err := Run(replayOptions(alg, 2000))
			if err != nil || rep.Executions != 2000 || rep.Counterexamples != 0 {
				b.Fatalf("%s: %d executions, %d counterexamples, err %v", alg, rep.Executions, rep.Counterexamples, err)
			}
		}
	}
}
