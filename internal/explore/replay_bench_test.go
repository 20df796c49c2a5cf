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

// TestReplayAllocFence bounds what one replay on 2x2x2 allocates.
//
// rd: the world, its four ranks' messages and buffers, the step records.
// It was 395 when every point kept three maps, every replay regrew its
// trace from nil and every send formatted a span name; 287 when every
// object of a world was an allocation of its own and every step's
// footprint was copied for the observer; and 199 when every footprint key
// was a concatenated string, every world concatenated its names, every
// new decision point was allocated afresh and every replay recorded a
// trace; and 131 when every replay resolved its scenario again and grew
// its engine's event buckets and step scratch from nil. It is 90 now, and
// the fence is that plus 15 %.
//
// sched-mha: the same, plus what running the schedule allocates. It is 95
// now, and the fence is that plus 15 %. It was 154 when every replay built
// the schedule and its per-rank transfer lists again, and 184 when every
// rank walked every transfer of every step and every post allocated its
// request.
func TestReplayAllocFence(t *testing.T) {
	const replays = 500
	for _, tc := range []struct {
		alg   string
		fence float64
	}{
		{"rd", 104},
		{"sched-mha", 109},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if rep, err := Run(replayOptions(tc.alg, replays)); err != nil || rep.Executions != replays {
				t.Fatalf("%s: %d executions, err %v", tc.alg, rep.Executions, err)
			}
		})
		if per := allocs / replays; per > tc.fence {
			t.Errorf("%s: %.0f allocations per replay, fence is %.0f", tc.alg, per, tc.fence)
		} else {
			t.Logf("%s: %.0f allocations per replay", tc.alg, per)
		}
	}
}
