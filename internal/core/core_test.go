package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/perfmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

func pattern(r, m int) []byte {
	b := make([]byte, m)
	for i := range b {
		b[i] = compose.PatternByte(0, r, i)
	}
	return b
}

func expected(n, m int) string {
	out := make([]byte, 0, n*m)
	for r := 0; r < n; r++ {
		out = append(out, pattern(r, m)...)
	}
	return string(out)
}

// verifyIntra runs MHA-intra with real payloads on one node and checks the
// oracle.
func verifyIntra(t *testing.T, ppn, hcas, m int, d float64) {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(1, ppn, hcas)})
	want := expected(ppn, m)
	err := w.Run(func(p *mpi.Proc) {
		recv := mpi.NewBuf(ppn * m)
		MHAIntraAllgatherD(p, w.CommWorld(), mpi.Bytes(pattern(p.Rank(), m)), recv, d)
		if string(recv.Data()) != want {
			t.Errorf("ppn=%d m=%d d=%v: rank %d wrong result", ppn, m, d, p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMHAIntraMatchesOracle(t *testing.T) {
	for _, ppn := range []int{1, 2, 3, 4, 8, 16} {
		for _, m := range []int{1, 64, 4096} {
			for _, d := range []float64{AutoOffload, 0, 0.5, 1, 1.7, 2.25} {
				if d > float64(ppn-1) {
					continue
				}
				verifyIntra(t, ppn, 2, m, d)
			}
		}
	}
}

func TestMHAIntraSingleHCA(t *testing.T) {
	verifyIntra(t, 4, 1, 512, AutoOffload)
	verifyIntra(t, 8, 4, 512, AutoOffload)
}

// measure runs an allgather in phantom mode and returns the latency.
func measureAllgather(nodes, ppn, hcas, m int, alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)) sim.Duration {
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, hcas), Phantom: true})
	err := w.Run(func(p *mpi.Proc) {
		alg(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()))
	})
	if err != nil {
		panic(err)
	}
	return sim.Duration(w.Makespan())
}

func intraMHA(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	MHAIntraAllgather(p, w.CommWorld(), send, recv)
}

func intraDirect(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
	collectives.DirectSpreadAllgather(p, w.CommWorld(), send, recv)
}

func TestMHAIntraBeatsDirectSpread(t *testing.T) {
	// The Figure 11 claim: with 2 idle HCAs, MHA-intra beats the pure-CPU
	// direct spread, and the margin shrinks as PPN grows.
	m := 4 << 20
	var prev float64 = math.Inf(1)
	for _, ppn := range []int{2, 4, 8, 16} {
		ds := measureAllgather(1, ppn, 2, m, intraDirect)
		mha := measureAllgather(1, ppn, 2, m, intraMHA)
		speedup := float64(ds) / float64(mha)
		if speedup <= 1.02 {
			t.Fatalf("ppn=%d: MHA (%v) not faster than direct spread (%v)", ppn, mha, ds)
		}
		if speedup > prev+0.05 {
			t.Fatalf("ppn=%d: speedup %.2f grew vs smaller ppn %.2f", ppn, speedup, prev)
		}
		prev = speedup
	}
	// Two processes: the paper reports ~64-65% latency reduction.
	ds := measureAllgather(1, 2, 2, m, intraDirect)
	mha := measureAllgather(1, 2, 2, m, intraMHA)
	if red := 1 - float64(mha)/float64(ds); red < 0.4 {
		t.Fatalf("2-process reduction = %.0f%%, want >= 40%%", red*100)
	}
}

func TestOffloadPlanProperties(t *testing.T) {
	f := func(lRaw, mRaw uint16, dRaw uint16) bool {
		L := int(lRaw)%31 + 2
		m := int(mRaw)%8192 + 1
		d := float64(dRaw%1000) / 1000 * float64(L-1)
		plan := offloadPlan(L, m, d)
		if len(plan) != L {
			return false
		}
		totalHCA := 0
		for s := 1; s < L; s++ {
			if plan[s].cpu+plan[s].hca != m || plan[s].cpu < 0 || plan[s].hca < 0 {
				return false
			}
			totalHCA += plan[s].hca
		}
		// Total offloaded bytes within one rounding of d*m.
		want := d * float64(m)
		return math.Abs(float64(totalHCA)-want) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadPlanFullOffload(t *testing.T) {
	plan := offloadPlan(4, 100, 3)
	for s := 1; s < 4; s++ {
		if plan[s].hca != 100 || plan[s].cpu != 0 {
			t.Fatalf("full offload plan wrong at step %d: %+v", s, plan[s])
		}
	}
	plan = offloadPlan(4, 100, 0)
	for s := 1; s < 4; s++ {
		if plan[s].cpu != 100 || plan[s].hca != 0 {
			t.Fatalf("zero offload plan wrong at step %d: %+v", s, plan[s])
		}
	}
}

func verifyInter(t *testing.T, nodes, ppn, hcas, m int, cfg InterConfig) {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, hcas)})
	n := nodes * ppn
	want := expected(n, m)
	err := w.Run(func(p *mpi.Proc) {
		recv := mpi.NewBuf(n * m)
		MHAInterAllgatherCfg(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv, cfg)
		if string(recv.Data()) != want {
			t.Errorf("%dx%d m=%d cfg=%+v: rank %d wrong", nodes, ppn, m, cfg, p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMHAInterMatchesOracle(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{{2, 2}, {4, 4}, {3, 3}, {8, 2}, {2, 8}, {5, 2}}
	for _, s := range shapes {
		for _, cfg := range []InterConfig{
			{},
			{LeaderAlg: ForceRing},
			{LeaderAlg: ForceRD},
			{LeaderAlg: ForceRing, NoOverlap: true},
			{LeaderAlg: ForceRD, PlainPhase1: true},
		} {
			for _, m := range []int{8, 2048} {
				verifyInter(t, s.nodes, s.ppn, 2, m, cfg)
			}
		}
	}
}

func TestMHAAllgatherDispatch(t *testing.T) {
	// Single node goes through MHA-intra; multi-node through MHA-inter.
	for _, s := range []struct{ nodes, ppn int }{{1, 4}, {4, 2}} {
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		n := s.nodes * s.ppn
		m := 128
		want := expected(n, m)
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			MHAAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
			if string(recv.Data()) != want {
				t.Errorf("%dx%d: rank %d wrong", s.nodes, s.ppn, p.Rank())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMHAInterBeatsBaselinesAtScale(t *testing.T) {
	// Figure 12-14 behavior at a reduced but still multi-node scale:
	// MHA wins against both library profiles for large messages, and the
	// margin grows with node count.
	m := 64 << 10
	gap := func(nodes int) (hpcx, mvp float64) {
		mha := measureAllgather(nodes, 8, 2, m, MHAInterAllgather)
		h := measureAllgather(nodes, 8, 2, m, collectives.HPCX().Allgather)
		v := measureAllgather(nodes, 8, 2, m, collectives.MVAPICH2X().Allgather)
		return float64(h) / float64(mha), float64(v) / float64(mha)
	}
	h8, v8 := gap(8)
	if h8 < 1.2 || v8 < 1.2 {
		t.Fatalf("8 nodes: speedups %.2f / %.2f, want > 1.2", h8, v8)
	}
	h16, v16 := gap(16)
	if h16 < h8*0.9 || v16 < v8*0.9 {
		t.Fatalf("margin should grow or hold with node count: hpcx %.2f->%.2f mvp %.2f->%.2f",
			h8, h16, v8, v16)
	}
}

func TestRingVsRDCrossoverMeasured(t *testing.T) {
	// Figure 8: RD wins small messages, Ring wins large.
	topo := topology.New(8, 8, 2)
	prm := netmodel.Thor()
	small := 256
	large := 256 << 10
	ringS := MeasureInter(topo, prm, small, InterConfig{LeaderAlg: ForceRing})
	rdS := MeasureInter(topo, prm, small, InterConfig{LeaderAlg: ForceRD})
	if rdS >= ringS {
		t.Fatalf("small: RD (%v) should beat Ring (%v)", rdS, ringS)
	}
	ringL := MeasureInter(topo, prm, large, InterConfig{LeaderAlg: ForceRing})
	rdL := MeasureInter(topo, prm, large, InterConfig{LeaderAlg: ForceRD})
	if ringL >= rdL {
		t.Fatalf("large: Ring (%v) should beat RD (%v)", ringL, rdL)
	}
}

func TestAutoSelectionNeverMuchWorseThanBest(t *testing.T) {
	topo := topology.New(8, 8, 2)
	prm := netmodel.Thor()
	for _, m := range []int{128, 4096, 64 << 10, 512 << 10} {
		auto := MeasureInter(topo, prm, m, InterConfig{})
		ring := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRing})
		rd := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRD})
		best := ring
		if rd < best {
			best = rd
		}
		if float64(auto) > 1.25*float64(best) {
			t.Fatalf("m=%d: auto %v much worse than best %v (ring %v, rd %v)", m, auto, best, ring, rd)
		}
	}
}

func TestOverlapAblation(t *testing.T) {
	topo := topology.New(8, 8, 2)
	prm := netmodel.Thor()
	m := 128 << 10
	with := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRing})
	without := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRing, NoOverlap: true})
	if with >= without {
		t.Fatalf("overlap (%v) not faster than sequential (%v)", with, without)
	}
}

func TestMHAIntraPhase1Ablation(t *testing.T) {
	// The MHA-intra phase 1 should beat the plain gather-to-leader
	// phase 1 for large per-rank blocks.
	topo := topology.New(4, 8, 2)
	prm := netmodel.Thor()
	m := 1 << 20
	mha := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRing})
	plain := MeasureInter(topo, prm, m, InterConfig{LeaderAlg: ForceRing, PlainPhase1: true})
	if mha >= plain {
		t.Fatalf("MHA phase 1 (%v) not faster than plain gather (%v)", mha, plain)
	}
}

func TestTuneOffloadFindsGoodD(t *testing.T) {
	topo := topology.New(1, 8, 2)
	prm := netmodel.Thor()
	m := 4 << 20
	bestD, curve := TuneOffload(topo, prm, m, 8)
	if len(curve) < 8 {
		t.Fatalf("curve has %d points", len(curve))
	}
	tuned := MeasureIntra(topo, prm, m, bestD)
	none := MeasureIntra(topo, prm, m, 0)
	full := MeasureIntra(topo, prm, m, 7)
	if tuned > none || tuned > full {
		t.Fatalf("tuned d=%.2f (%v) worse than an endpoint (none %v, full %v)",
			bestD, tuned, none, full)
	}
	// The tuned point should be within ~15%% of the analytic Equation (1).
	analytic := MeasureIntra(topo, prm, m, AutoOffload)
	if float64(tuned) > 1.15*float64(analytic) {
		t.Fatalf("tuned %v much worse than analytic %v", tuned, analytic)
	}
}

func TestTuneOffloadSingleRank(t *testing.T) {
	d, curve := TuneOffload(topology.New(1, 1, 2), netmodel.Thor(), 1024, 5)
	if d != 0 || len(curve) != 1 {
		t.Fatalf("single-rank tuning: d=%v curve=%v", d, curve)
	}
}

func f64buf(base float64, elems int) mpi.Buf {
	b := make([]byte, elems*8)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(base+float64(i)))
	}
	return mpi.Bytes(b)
}

func f64at(b mpi.Buf, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Data()[i*8:]))
}

func TestMHAAllreduceMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{2, 2}, {4, 2}, {2, 4}, {4, 4}} {
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		n := s.nodes * s.ppn
		elems := 8 * n
		err := w.Run(func(p *mpi.Proc) {
			buf := f64buf(float64(p.Rank()), elems)
			MHAAllreduce(p, w, buf, collectives.SumF64())
			for i := 0; i < elems; i++ {
				want := float64(n*(n-1))/2 + float64(n*i)
				if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
					t.Errorf("%dx%d rank %d elem %d = %v want %v", s.nodes, s.ppn, p.Rank(), i, got, want)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMHAAllreduceBeatsRingAtScale(t *testing.T) {
	// Figure 15 behavior: plugging the MHA allgather into ring allreduce
	// beats the flat ring allreduce for large buffers.
	topo := topology.New(8, 8, 2)
	prm := netmodel.Thor()
	n := 1 << 20 // 1 MB per rank, divisible by 8*64
	mha := MeasureProfileAllreduce(topo, prm, n, Profile())
	ring := MeasureProfileAllreduce(topo, prm, n, collectives.HPCX())
	if float64(ring)/float64(mha) < 1.1 {
		t.Fatalf("MHA allreduce %v vs ring %v: want > 1.1x", mha, ring)
	}
}

func TestProfileFallbackForNonUniformBuffers(t *testing.T) {
	// A buffer not divisible by 8*size must still reduce correctly.
	w := mpi.New(mpi.Config{Topo: topology.New(2, 3, 2)})
	n := 6
	err := w.Run(func(p *mpi.Proc) {
		buf := f64buf(float64(p.Rank()), 5) // 40 bytes, not divisible by 48
		Profile().Allreduce(p, w, buf, collectives.SumF64())
		want := float64(n * (n - 1) / 2)
		if got := f64at(buf, 0); math.Abs(got-want) > 1e-9 {
			t.Errorf("elem 0 = %v want %v", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModelValidation(t *testing.T) {
	// Figures 9 and 10: the analytic model must track the simulated
	// latency within a factor band across the sweep.
	prm := netmodel.Thor()

	// Fig. 9: MHA-intra, 4 processes, 16KB..16MB.
	intraTopo := topology.New(1, 4, 2)
	pm := perfmodel.New(prm, intraTopo)
	for m := 16 << 10; m <= 16<<20; m *= 4 {
		actual := MeasureIntra(intraTopo, prm, m, AutoOffload)
		predicted := pm.MHAIntra(m)
		ratio := float64(actual) / float64(predicted)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("intra m=%d: actual %v vs predicted %v (ratio %.2f)", m, actual, predicted, ratio)
		}
	}

	// Fig. 10 (scaled down): MHA-inter, 4 nodes 8 PPN, 1KB..512KB.
	interTopo := topology.New(4, 8, 2)
	pm2 := perfmodel.New(prm, interTopo)
	for m := 1 << 10; m <= 512<<10; m *= 8 {
		actual := MeasureInter(interTopo, prm, m, InterConfig{})
		pr := pm2.MHAInterRing(m)
		if rd := pm2.MHAInterRD(m); rd < pr {
			pr = rd
		}
		ratio := float64(actual) / float64(pr)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("inter m=%d: actual %v vs predicted %v (ratio %.2f)", m, actual, pr, ratio)
		}
	}
}

func TestLeaderChoiceString(t *testing.T) {
	for _, c := range []struct {
		l    LeaderChoice
		want string
	}{{AutoLeaderAlg, "auto"}, {ForceRing, "ring"}, {ForceRD, "rd"}, {LeaderChoice(9), "?"}} {
		if got := c.l.String(); got != c.want {
			t.Fatalf("%d.String() = %q want %q", c.l, got, c.want)
		}
	}
}

func TestMHAIntraArgCheck(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 2, 1)})
	err := w.Run(func(p *mpi.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched buffers should panic")
			}
		}()
		MHAIntraAllgather(p, w.CommWorld(), mpi.Phantom(8), mpi.Phantom(8))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: MHA-intra is correct for random (ppn, hca, m, d).
func TestQuickMHAIntraCorrect(t *testing.T) {
	f := func(ppn, hcas uint8, mRaw uint16, dRaw uint16) bool {
		L := int(ppn)%6 + 1
		H := int(hcas)%3 + 1
		m := int(mRaw)%512 + 1
		d := float64(dRaw%1000) / 1000 * float64(L-1)
		w := mpi.New(mpi.Config{Topo: topology.New(1, L, H)})
		want := expected(L, m)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(L * m)
			MHAIntraAllgatherD(p, w.CommWorld(), mpi.Bytes(pattern(p.Rank(), m)), recv, d)
			if string(recv.Data()) != want {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func ExampleMHAAllgather() {
	w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 2)})
	err := w.Run(func(p *mpi.Proc) {
		send := mpi.Bytes([]byte{byte('A' + p.Rank())})
		recv := mpi.NewBuf(4)
		MHAAllgather(p, w, send, recv)
		if p.Rank() == 0 {
			fmt.Println(string(recv.Data()))
		}
	})
	if err != nil {
		panic(err)
	}
	// Output: ABCD
}
