package sched

import (
	"fmt"
	"strings"
	"testing"

	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// TestExecutorTagContract pins the wire contract of both interpreters:
// the q-th transfer of a step between one (src, dst) pair travels under
// mpi.Tag(epoch, 12, step<<7|q), q counted per ordered pair and per
// step. Rank 0 interprets the schedule; rank 1 is written out by hand
// against those tags, posting its sends in reverse so only the tag can
// pair a payload with its window. A different numbering deadlocks the
// world or lands bytes in the wrong window.
func TestExecutorTagContract(t *testing.T) {
	topo := topology.New(2, 1, 2)
	const m = 96
	b := NewBuilder("tags", topo, m)
	// Step 0: 0->1 striped over both rails (two transfers of one pair),
	// interleaved with a hand-built three-per-pair 1->0.
	b.Step()
	b.RailPiece(0, 1, 0, 1, 0, 48, 0)
	b.Xfer(Transfer{Src: 1, Dst: 0, First: 1, Count: 1, Off: 0, Len: 32})
	b.Xfer(Transfer{Src: 1, Dst: 0, First: 1, Count: 1, Off: 32, Len: 32})
	b.RailPiece(0, 1, 0, 1, 48, 48, 1)
	b.Xfer(Transfer{Src: 1, Dst: 0, First: 1, Count: 1, Off: 64, Len: 32})
	// Step 1: the ordinal restarts; the step index moves into the tag.
	b.Step()
	b.Xfer(Transfer{Src: 0, Dst: 1, First: 1, Count: 1, Off: 0, Len: 40})
	b.Xfer(Transfer{Src: 0, Dst: 1, First: 1, Count: 1, Off: 40, Len: 56})
	s := b.MustBuild()
	if striped := NewBuilder("striped", topo, m).Striped(0, 1, 0, 1, 2).MustBuild(); fmt.Sprint(striped.Steps[0].Xfers) !=
		fmt.Sprint([]Transfer{s.Steps[0].Xfers[0], s.Steps[0].Xfers[3]}) {
		t.Fatalf("the two 0->1 pieces of step 0 are not what Striped emits: %v", striped.Steps[0].Xfers)
	}
	if _, err := Analyze(s, nil); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(s)

	interpreters := map[string]func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf){
		"Execute": func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) { Execute(p, w, s, ix, send, recv) },
		"ExecuteGoal": func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
			ExecuteGoal(p, w.CommWorld(), s, ix, AllgatherGoal(2),
				func(Range) mpi.Buf { return send }, func(Range) mpi.Buf { return recv }, nil)
		},
	}
	for name, interpret := range interpreters {
		t.Run(name, func(t *testing.T) {
			w := mpi.New(mpi.Config{Topo: topo, Params: netmodel.Thor()})
			err := w.Run(func(p *mpi.Proc) {
				me := p.Rank()
				send := mpi.NewBuf(m)
				for i := range send.Data() {
					send.Data()[i] = patByte(me, i)
				}
				recv := mpi.NewBuf(2 * m)
				if me == 0 {
					interpret(p, w, send, recv)
				} else {
					c := w.CommWorld()
					epoch := c.Epoch(p)
					tag := func(step, q int) int { return mpi.Tag(epoch, 12, step<<7|q) }
					p.LocalCopy(recv.Slice(m, m), send)
					lo, hi := p.Irecv(c, 0, tag(0, 0)), p.Irecv(c, 0, tag(0, 1))
					sends := []*mpi.Request{
						p.Isend(c, 0, tag(0, 2), recv.Slice(m+64, 32)),
						p.Isend(c, 0, tag(0, 1), recv.Slice(m+32, 32)),
						p.Isend(c, 0, tag(0, 0), recv.Slice(m, 32)),
					}
					recv.Slice(48, 48).CopyFrom(p.Wait(hi))
					recv.Slice(0, 48).CopyFrom(p.Wait(lo))
					for _, sr := range sends {
						p.Wait(sr)
					}
					tail, head := p.Irecv(c, 0, tag(1, 1)), p.Irecv(c, 0, tag(1, 0))
					if got := p.Wait(tail).Len(); got != 56 {
						t.Errorf("step 1 ordinal 1 carried %d bytes, want 56", got)
					}
					if got := p.Wait(head).Len(); got != 40 {
						t.Errorf("step 1 ordinal 0 carried %d bytes, want 40", got)
					}
				}
				for i, got := range recv.Data() {
					if want := patByte(i/m, i%m); got != want {
						t.Errorf("rank %d byte %d = %#02x, want %#02x", me, i, got, want)
						break
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectRailMakespanPinned: the greedy direct construction is the
// lowering with the most transfers per step (every cross-node pair at
// once), so its simulated makespan is the executor's widest regression
// net. Values recorded before the executors stopped counting other
// ranks' transfers.
func TestDirectRailMakespanPinned(t *testing.T) {
	prm := netmodel.Thor()
	for _, tc := range []struct {
		topo topology.Cluster
		msg  int
		want sim.Duration
	}{
		{topology.New(2, 2, 2), 4 << 10, 5859},
		{topology.New(4, 4, 2), 64 << 10, 230353},
		{topology.New(8, 4, 2), 4 << 10, 131680},
	} {
		got, err := Simulate(tc.topo, prm, DirectRail(tc.topo, tc.msg))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("direct-rail on %v msg=%d: makespan %d, recorded %d", tc.topo, tc.msg, int64(got), int64(tc.want))
		}
	}
}

// TestSynthesizeStable pins what the search returns — winner, its
// analyzer cost and measured makespan, whether the measurement was
// pruned, and the seeds priced to the end, in order — on three 32-rank
// shapes at three sizes, healthy and with rail 1 at half rate, under the
// tuner's pruning margin. Recorded before the analyzer's per-step state
// moved from maps to slices; any rewrite of the cold path must leave
// every line alone. The seed lists were re-recorded once, on purpose,
// when the search began to abandon a seed that cannot reach the beam:
// each list lost the seeds cut, and kept its first beamWidth entries and
// every winner, cost, makespan and pruning verdict.
func TestSynthesizeStable(t *testing.T) {
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(synthGolden), "\n") {
		key, rest, _ := strings.Cut(line, ": ")
		want[key] = rest
	}
	prm := netmodel.Thor()
	for _, shape := range [][2]int{{2, 8}, {4, 8}, {8, 4}} {
		for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
			if testing.Short() && msg != 64<<10 {
				continue
			}
			topo := topology.New(shape[0], shape[1], 2)
			for _, health := range [][]float64{nil, {1, 0.5}} {
				res, err := Synthesize(topo, prm, msg, SynthOptions{PruneMargin: 0.25, Health: health})
				if err != nil {
					t.Fatal(err)
				}
				var seeds []string
				for _, c := range res.Seeds {
					seeds = append(seeds, fmt.Sprintf("%s=%d", c.Name, int64(c.Cost)))
				}
				key := fmt.Sprintf("%dx%dx2/%d/%v", shape[0], shape[1], msg, health)
				got := fmt.Sprintf("best=%s cost=%d makespan=%d pruned=%v seeds=%s",
					res.Best.Name, int64(res.Best.Cost), int64(res.Best.Makespan), res.Pruned, strings.Join(seeds, ","))
				if got != want[key] {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want[key])
				}
			}
		}
	}
}

// TestMutateStable pins the neighbors one candidate contributes — which
// fusions survive, in which order, under which names, at what cost —
// including a round that runs out of budget inside the scan. The
// candidate is a deliberately serial exchange (one transfer per step),
// so almost every fusion improves it.
func TestMutateStable(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(2, 2, 2)
	// spread alternates the pinned rail by destination, which makes every
	// adjacent pair of steps fusable (no endpoint is pinned twice).
	serial := func(msg int, spread bool) *Schedule {
		b := NewBuilder("serial", topo, msg)
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				switch {
				case src == dst:
				case topo.SameNode(src, dst):
					b.Step().Send(src, dst, src)
				case spread:
					b.Step().RailPiece(src, dst, src, 1, 0, msg, dst%2)
				default:
					b.Step().RailPiece(src, dst, src, 1, 0, msg, 0)
				}
			}
		}
		return b.MustBuild()
	}
	for _, tc := range []struct {
		msg    int
		spread bool
		health []float64
		want   string
	}{
		{1 << 20, false, nil, "serial+f0=1005495 serial+f2=1005495 serial+f3=1005495 serial+f5=1005495 serial+f7=1005495 serial+f8=1005495 serial+f10=1005495"},
		{1 << 20, false, []float64{0.25, 1}, "serial+f0=3106589 serial+f2=3106589 serial+f3=3106589 serial+f5=2844318 serial+f7=3106589 serial+f8=3106589 serial+f10=3106589"},
		{4 << 10, true, nil, "serial+f0=21121 serial+f1=19832 serial+f2=21121 serial+f3=21121 serial+f4=19832 serial+f5=19832 serial+f6=19832 serial+f7=21121"},
	} {
		s := serial(tc.msg, tc.spread)
		rep, err := AnalyzeHealth(s, prm, tc.health)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range (&search{prm: prm, health: tc.health}).mutate(Candidate{Name: "serial", Sched: s, Cost: rep.Cost}) {
			if m.Sched.Name != m.Name {
				t.Errorf("mutant %s carries schedule name %s", m.Name, m.Sched.Name)
			}
			got = append(got, fmt.Sprintf("%s=%d", m.Name, int64(m.Cost)))
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("msg=%d health=%v: mutants of cost %d moved:\n got %s\nwant %s", tc.msg, tc.health, int64(rep.Cost), g, tc.want)
		}
	}
}

// TestSearchCountersPinned pins where one search spends its effort, on
// the shape of the benchmark's sched.synth_ms probe under the tuner's
// margin: 15 of the 21 seeds abandoned before they are priced to the
// end, one round over a beam of four, each parent walked once, every
// one of its 59 fusions settled by that walk (41 fail the read or pin
// checks of the step they make, 18 pass at no lower a price), none
// built. Of the five finalists none is simulated. ring, the cheapest
// bounded one (190 712 ns), is priced exactly: on a healthy machine a
// bounded finalist's makespan is its cost. mha-ring, mha-ring-d0 and
// mha-rd all cost more than that (202 262 ns and up), and rd, which is
// unbounded, has a floor above it, so the bounds rule out those four.
func TestSearchCountersPinned(t *testing.T) {
	res, err := Synthesize(topology.New(4, 8, 2), netmodel.Thor(), 64<<10, SynthOptions{PruneMargin: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	const want = "15 seeds abandoned; 1 rounds, 4 walks; 59 neighbors: 41 rejected locally, 18 not cheaper, 0 analyzed, 0 accepted; 0 simulated, 1 exact, 4 skipped"
	if got := res.Search.String(); got != want {
		t.Errorf("search counters moved:\n got %s\nwant %s", got, want)
	}
}

const synthGolden = `
2x8x2/4096/[]: best=mha-rd cost=14697 makespan=14697 pruned=false seeds=mha-rd=14697,mha-rd-d0=14697,mha-rd-seq-d0=14697,mha-ring=14697,mha-ring-d0=14697,mha-ring-seq-d0=14697,ring=33908,rd=39215
2x8x2/4096/[1 0.5]: best=mha-rd cost=19018 makespan=19018 pruned=false seeds=mha-rd=19018,mha-rd-d0=19018,mha-rd-seq-d0=19018,mha-ring=19018,mha-ring-d0=19018,mha-ring-seq-d0=19018,mha-ring-push-d0=39004,ring=49518,rd=66743
2x8x2/65536/[]: best=ring cost=93736 makespan=93736 pruned=false seeds=ring=93736,mha-rd=113680,mha-rd-d0=113680,mha-rd-seq-d0=113680,mha-ring=113680,mha-ring-d0=113680,mha-ring-seq-d0=113680,rd=235978
2x8x2/65536/[1 0.5]: best=mha-rd cost=137821 makespan=137821 pruned=false seeds=mha-rd=137821,mha-rd-d0=137821,mha-rd-seq-d0=137821,mha-ring=137821,mha-ring-d0=137821,mha-ring-seq-d0=137821,ring=145681,rd=316354
2x8x2/1048576/[]: best=ring cost=1360345 makespan=1360345 pruned=false seeds=ring=1360345,mha-rd-d0=1697398,mha-rd-seq-d0=1697398,mha-ring-d0=1697398,mha-ring-seq-d0=1697398,mha-rd=1971665,mha-ring=1971665,rd=3384099
2x8x2/1048576/[1 0.5]: best=ring cost=1360345 makespan=0 pruned=true seeds=ring=1360345,mha-rd-d0=2038648,mha-rd-seq-d0=2038648,mha-ring-d0=2038648,mha-ring-seq-d0=2038648,mha-rd=2449675,mha-ring=2449675,rd=4310099
4x8x2/4096/[]: best=mha-rd cost=23070 makespan=23070 pruned=false seeds=mha-rd=23070,mha-rd-d0=23070,mha-ring=23339,mha-ring-d0=23339,mha-ring-seq-d0=33604,ring=69588,rd=84359
4x8x2/4096/[1 0.5]: best=mha-rd cost=33034 makespan=33034 pruned=false seeds=mha-rd=33034,mha-rd-d0=33034,mha-ring=36302,mha-ring-d0=36302,mha-ring-seq-d0=46567,mha-ring-push-d0=85638,ring=103038,rd=142935
4x8x2/65536/[]: best=ring cost=190712 makespan=190712 pruned=false seeds=ring=190712,mha-ring=202262,mha-ring-d0=202262,mha-rd=202651,mha-rd-d0=202651,rd=598226
4x8x2/65536/[1 0.5]: best=mha-ring cost=234385 makespan=234385 pruned=false seeds=mha-ring=234385,mha-ring-d0=234385,mha-rd=272073,mha-rd-d0=272073,ring=298065,rd=815362
4x8x2/1048576/[]: best=ring cost=2768041 makespan=2768041 pruned=false seeds=ring=2768041,mha-rd-d0=3096099,mha-ring-d0=3096700,mha-rd=3370366,mha-ring=3370967,rd=8820107
4x8x2/1048576/[1 0.5]: best=ring cost=2768041 makespan=2768041 pruned=false seeds=ring=2768041,mha-ring-d0=3437950,mha-ring=3848977,mha-rd-d0=4096700,mha-rd=4507727,rd=11574099
8x4x2/4096/[]: best=mha-rd cost=21867 makespan=21867 pruned=false seeds=mha-rd=21867,mha-rd-d0=21867,mha-ring=23173,mha-ring-d0=23173,mha-ring-seq-d0=41466,mha-ring-push-d0=47107,rd=57182,ring=69588
8x4x2/4096/[1 0.5]: best=mha-rd cost=34392 makespan=34392 pruned=false seeds=mha-rd=34392,mha-rd-d0=34392,mha-ring=41100,mha-ring-d0=41100,mha-ring-push-d0=49668,rd=99346,ring=103038
8x4x2/65536/[]: best=ring cost=190712 makespan=190712 pruned=false seeds=ring=190712,mha-ring=191689,mha-ring-d0=191689,mha-rd=191977,mha-rd-d0=191977,rd=352373
8x4x2/65536/[1 0.5]: best=mha-ring cost=233429 makespan=233429 pruned=false seeds=mha-ring=233429,mha-ring-d0=233429,mha-rd=274969,mha-rd-d0=274969,ring=298065,rd=487037
8x4x2/1048576/[]: best=ring cost=2768041 makespan=2768041 pruned=false seeds=ring=2768041,mha-rd-d0=2925175,mha-ring-d0=2927573,mha-rd=3018318,mha-ring=3020716,rd=5075478
8x4x2/1048576/[1 0.5]: best=ring cost=2768041 makespan=2768041 pruned=false seeds=ring=2768041,mha-ring-d0=3099698,mha-ring=3261221,mha-ring-d3=3584267,mha-rd-d0=4089026,mha-rd=4250549,rd=6689974
`

// BenchmarkTwoPhaseMHA is the one MHA construction with nothing kept:
// the plan every sched-mha replay of the explorer builds (2x2x2, 8 B)
// and the 128-rank plan BenchmarkSchedAnalyze prices.
func BenchmarkTwoPhaseMHA(b *testing.B) {
	prm := netmodel.Thor()
	for _, bc := range []struct {
		name string
		topo topology.Cluster
		msg  int
	}{
		{"2x2x2-8B", topology.New(2, 2, 2), 8},
		{"8x16x2-64KiB", topology.New(8, 16, 2), 64 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TwoPhaseMHA(bc.topo, prm, bc.msg, MHAOptions{Offload: AutoOffload})
			}
		})
	}
}

// BenchmarkSchedAnalyze prices two 128-rank plans: the two-phase MHA
// allgather a cold tuner miss analyzes, and a recursive-doubling
// allreduce whose every delivery folds, so every step interns a new
// contributor set per block and group.
func BenchmarkSchedAnalyze(b *testing.B) {
	prm := netmodel.Thor()
	topo := topology.New(8, 16, 2)
	allreduce, goal := rdAllreduce(topo, 512)
	for _, bc := range []struct {
		name string
		s    *Schedule
		g    *Goal
	}{
		{"8x16x2-mha", TwoPhaseMHA(topo, prm, 64<<10, MHAOptions{Offload: AutoOffload}), nil},
		{"8x16x2-rd-allreduce", allreduce, goal},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeGoalHealth(bc.s, prm, nil, bc.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rdAllreduce is a recursive-doubling allreduce over a power-of-two
// world: in step k every rank folds all n blocks into its partner's at
// distance 2^k. The goal is the allreduce's: every rank contributes and
// wants every block.
func rdAllreduce(topo topology.Cluster, msg int) (*Schedule, *Goal) {
	n := topo.Size()
	bld := NewBuilder("rd-allreduce", topo, msg).Blocks(n)
	for d := 1; d < n; d <<= 1 {
		bld.Step()
		for r := 0; r < n; r++ {
			bld.SendRed(r, r^d, 0, n)
		}
	}
	g := &Goal{Blocks: n, Init: make([][]Range, n), Want: make([][]Range, n)}
	for r := 0; r < n; r++ {
		g.Init[r] = []Range{{First: 0, Count: n}}
		g.Want[r] = []Range{{First: 0, Count: n}}
	}
	return bld.MustBuild(), g
}

// BenchmarkSchedSynthesize is one cold tuner miss: the probe shape of
// the benchmark's sched.synth_ms, and the 128-rank key that is a quarter
// of tuner-serve's cold set-up. simulated/op, exact/op and skipped/op
// are the finalists the final pick simulated, priced exactly at their
// cost and ruled out by the bound.
func BenchmarkSchedSynthesize(b *testing.B) {
	prm := netmodel.Thor()
	for _, shape := range [][2]int{{4, 8}, {8, 16}} {
		topo := topology.New(shape[0], shape[1], 2)
		b.Run(fmt.Sprintf("%dx%dx2", shape[0], shape[1]), func(b *testing.B) {
			b.ReportAllocs()
			var simulated, exact, skipped int
			for i := 0; i < b.N; i++ {
				res, err := Synthesize(topo, prm, 64<<10, SynthOptions{PruneMargin: 0.25})
				if err != nil {
					b.Fatal(err)
				}
				simulated += res.Search.Simulated
				exact += res.Search.Exact
				skipped += res.Search.Skipped
			}
			b.ReportMetric(float64(simulated)/float64(b.N), "simulated/op")
			b.ReportMetric(float64(exact)/float64(b.N), "exact/op")
			b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
		})
	}
}
