package perfmodel

import (
	"testing"
	"testing/quick"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

func thor(nodes, ppn, hcas int) Model {
	return New(netmodel.Thor(), topology.New(nodes, ppn, hcas))
}

func TestOffloadDInRange(t *testing.T) {
	f := func(ppn, hcas uint8, mRaw uint32) bool {
		L := int(ppn)%32 + 1
		H := int(hcas)%8 + 1
		m := int(mRaw%(16<<20)) + 1
		d := thor(1, L, H).OffloadD(m)
		return d >= 0 && d <= float64(L-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOffloadDZeroForSingleRank(t *testing.T) {
	if d := thor(1, 1, 2).OffloadD(1 << 20); d != 0 {
		t.Fatalf("d = %f for L=1, want 0", d)
	}
}

func TestOffloadBalancesFinishTimes(t *testing.T) {
	// At the analytic d, CPU and HCA finish times are equal by
	// construction (Equation 1 with the T_L refinement).
	m := thor(1, 8, 2)
	M := 1 << 20
	d := m.OffloadD(M)
	L := 8.0
	cpu := float64(m.TL(M)) + (L-1-d)*float64(m.TC(M))
	hca := L * d * float64(m.TH(M))
	if diff := cpu - hca; diff > float64(m.TC(M)) || diff < -float64(m.TC(M)) {
		t.Fatalf("imbalance at analytic d: cpu %.0f vs hca %.0f", cpu, hca)
	}
}

func TestMHAIntraBeatsNoOffload(t *testing.T) {
	m := thor(1, 4, 2)
	M := 4 << 20
	with := m.MHAIntra(M)
	without := m.MHAIntraWithOffload(M, 0)
	if with >= without {
		t.Fatalf("offload does not help: %v vs %v", with, without)
	}
	// Figure 5's U: full offload is also worse than the optimum.
	full := m.MHAIntraWithOffload(M, 3)
	if with >= full {
		t.Fatalf("optimum (%v) not better than full offload (%v)", with, full)
	}
}

func TestIntraSpeedupDecreasesWithPPN(t *testing.T) {
	// Section 5.2's trend: the benefit shrinks as processes share the
	// fixed pool of adapters.
	M := 4 << 20
	speedup := func(L int) float64 {
		m := thor(1, L, 2)
		return float64(m.MHAIntraWithOffload(M, 0)) / float64(m.MHAIntra(M))
	}
	s2, s8, s32 := speedup(2), speedup(8), speedup(32)
	if !(s2 > s8 && s8 > s32) {
		t.Fatalf("speedups not decreasing: L=2 %.2f, L=8 %.2f, L=32 %.2f", s2, s8, s32)
	}
	if s2 < 1.5 {
		t.Fatalf("2-process speedup %.2f, want >1.5x (paper: ~65%% latency cut)", s2)
	}
}

func TestFigure8Crossover(t *testing.T) {
	// RD wins for small messages, Ring for large (Figures 7 and 8).
	m := thor(16, 32, 2)
	if m.RingBetterThanRD(64) {
		t.Fatal("Ring should lose at 64B")
	}
	if !m.RingBetterThanRD(256 << 10) {
		t.Fatal("Ring should win at 256KB")
	}
	// And the crossover is monotone: find it and check consistency.
	crossed := false
	for sz := 64; sz <= 1<<20; sz *= 2 {
		ring := m.RingBetterThanRD(sz)
		if crossed && !ring {
			t.Fatalf("non-monotone RD/Ring decision at %dB", sz)
		}
		if ring {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("no crossover found")
	}
}

func TestPhase2Costs(t *testing.T) {
	m := thor(8, 4, 2)
	M := 64 << 10
	rd := m.Phase2RD(M)
	ring := m.Phase2Ring(M)
	// Both move the same (N-1)*M*L bytes; ring pays more startups.
	if ring <= rd {
		t.Fatalf("ring (%v) should pay more alpha than RD (%v)", ring, rd)
	}
	if d := ring - rd; d != 4*m.P.AlphaHCA { // (N-1)-log2(N) = 7-3 = 4
		t.Fatalf("alpha difference = %v, want 4 alphas", d)
	}
	if m.Phase2RD(0) != m.Phase2Ring(0)-4*m.P.AlphaHCA {
		t.Fatal("zero-byte phase2 inconsistent")
	}
	single := thor(1, 4, 2)
	if single.Phase2RD(M) != 0 || single.Phase2Ring(M) != 0 {
		t.Fatal("single node phase 2 should be free")
	}
}

func TestIntraBcastIncludesCongestion(t *testing.T) {
	wide := thor(2, 32, 2)
	narrow := thor(2, 2, 2)
	M := 256 << 10
	// Same per-rank size; the wide node moves 16x the bytes AND suffers
	// cg congestion, so it must be much more than 16x slower.
	if float64(wide.IntraBcast(M)) < 16*float64(narrow.IntraBcast(M)) {
		t.Fatalf("cg congestion missing: wide %v vs narrow %v",
			wide.IntraBcast(M), narrow.IntraBcast(M))
	}
}

func TestMHAInterBeatsFlatRing(t *testing.T) {
	// The headline: at 32 nodes x 32 PPN the hierarchical design is far
	// faster than the flat ring for large messages.
	m := thor(32, 32, 2)
	M := 64 << 10
	flat := m.FlatRing(M)
	mha := m.MHAInterRing(M)
	if ratio := float64(flat) / float64(mha); ratio < 1.5 {
		t.Fatalf("MHA/flat-ring speedup = %.2fx, want > 1.5x (flat %v, mha %v)",
			ratio, flat, mha)
	}
}

func TestSingleNodeInterReducesToIntra(t *testing.T) {
	m := thor(1, 8, 2)
	M := 1 << 20
	if m.MHAInterRing(M) != m.MHAIntra(M) || m.MHAInterRD(M) != m.MHAIntra(M) {
		t.Fatal("single-node inter cost should equal intra cost")
	}
}

// Property: model latencies are monotone in message size.
func TestQuickModelMonotone(t *testing.T) {
	m := thor(8, 8, 2)
	f := func(a, b uint32) bool {
		x, y := int(a%(4<<20))+1, int(b%(4<<20))+1
		if x > y {
			x, y = y, x
		}
		return m.MHAIntra(x) <= m.MHAIntra(y) &&
			m.MHAInterRing(x) <= m.MHAInterRing(y) &&
			m.MHAInterRD(x) <= m.MHAInterRD(y) &&
			m.FlatRing(x) <= m.FlatRing(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: more HCAs never slow the model down.
func TestQuickMoreHCAsNeverSlower(t *testing.T) {
	f := func(h uint8, mRaw uint32) bool {
		H := int(h)%4 + 1
		M := int(mRaw%(4<<20)) + 1
		a := thor(8, 8, H)
		b := thor(8, 8, H+1)
		return b.MHAIntra(M) <= a.MHAIntra(M) && b.MHAInterRing(M) <= a.MHAInterRing(M)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Ceil(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {32, 5}} {
		if got := log2ceil(c.n); got != c.want {
			t.Fatalf("log2ceil(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params should panic")
		}
	}()
	bad := netmodel.Thor()
	bad.BWHCA = -1
	New(bad, topology.New(1, 1, 1))
}

func TestPaperEquations6And7(t *testing.T) {
	m := thor(8, 32, 2)
	// The published forms must agree with the pipeline refinements on
	// direction: both predict Ring's advantage at large sizes once the
	// overlap branch is taken, and both reduce to phase 1 on one node.
	single := thor(1, 8, 2)
	if single.PaperEq6(1<<20) != single.MHAIntra(1<<20) ||
		single.PaperEq7(1<<20) != single.MHAIntra(1<<20) {
		t.Fatal("single-node paper equations should equal MHA-intra")
	}
	for _, M := range []int{1 << 10, 64 << 10, 1 << 20} {
		e6, e7 := m.PaperEq6(M), m.PaperEq7(M)
		if e6 <= 0 || e7 <= 0 {
			t.Fatalf("M=%d: non-positive paper equations %v %v", M, e6, e7)
		}
		// The pipeline refinements never exceed the published copy-bound
		// branch by more than the drain terms.
		if r := float64(m.MHAInterRing(M)) / float64(e7); r > 3 || r < 0.2 {
			t.Fatalf("M=%d: refined/published ring ratio %v implausible", M, r)
		}
	}
}

func TestIntraBcastOfMatchesIntraBcast(t *testing.T) {
	m := thor(4, 8, 2)
	M := 64 << 10
	if m.IntraBcast(M) != m.intraBcastOf(M*m.Topo.PPN) {
		t.Fatal("intraBcastOf(M*L) should equal IntraBcast(M)")
	}
}
