package collectives

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

// pattern fills rank r's contribution of m bytes deterministically.
func pattern(r, m int) []byte {
	b := make([]byte, m)
	for i := range b {
		b[i] = compose.PatternByte(0, r, i)
	}
	return b
}

// expectedAllgather is the sequential oracle: the concatenation of every
// rank's pattern.
func expectedAllgather(n, m int) []byte {
	out := make([]byte, 0, n*m)
	for r := 0; r < n; r++ {
		out = append(out, pattern(r, m)...)
	}
	return out
}

type allgatherFn func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)

func flat(f func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf)) allgatherFn {
	return func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		f(p, w.CommWorld(), send, recv)
	}
}

// runAllgather executes alg on a fresh world and checks every rank's
// result against the oracle, returning the completion time (max over
// ranks).
func runAllgather(t *testing.T, nodes, ppn, hcas, m int, alg allgatherFn) sim.Time {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, hcas)})
	n := w.Topo().Size()
	want := expectedAllgather(n, m)
	err := w.Run(func(p *mpi.Proc) {
		send := mpi.Bytes(pattern(p.Rank(), m))
		recv := mpi.NewBuf(n * m)
		alg(p, w, send, recv)
		if got := string(recv.Data()); got != string(want) {
			t.Errorf("%d nodes x %d ppn, m=%d: rank %d wrong result", nodes, ppn, m, p.Rank())
		}
	})
	if err != nil {
		t.Fatalf("%d nodes x %d ppn: %v", nodes, ppn, err)
	}
	return w.Makespan()
}

var flatAlgorithms = map[string]allgatherFn{
	"ring":   flat(RingAllgather),
	"rd":     flat(RDAllgather),
	"bruck":  flat(BruckAllgather),
	"direct": flat(DirectSpreadAllgather),
}

func TestFlatAllgathersMatchOracle(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{
		{1, 1}, {1, 2}, {1, 5}, {1, 8},
		{2, 1}, {2, 3}, {4, 2}, {3, 3}, {8, 1}, {4, 4}, {5, 2},
	}
	for name, alg := range flatAlgorithms {
		for _, s := range shapes {
			for _, m := range []int{1, 8, 1024} {
				t.Run(fmt.Sprintf("%s/%dx%d/m=%d", name, s.nodes, s.ppn, m), func(t *testing.T) {
					runAllgather(t, s.nodes, s.ppn, 2, m, alg)
				})
			}
		}
	}
}

func TestNeighborExchangeMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{1, 2}, {1, 4}, {2, 3}, {1, 8}, {2, 2}, {3, 2}, {1, 5}} {
		t.Run(fmt.Sprintf("%dx%d", s.nodes, s.ppn), func(t *testing.T) {
			runAllgather(t, s.nodes, s.ppn, 1, 64, flat(NeighborExchangeAllgather))
		})
	}
}

func TestHierarchicalAllgatherAllVariants(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{
		{1, 1}, {1, 4}, {2, 1}, {2, 4}, {4, 2}, {4, 4}, {3, 3}, {8, 2}, {5, 3},
	}
	cfgs := map[string]HierarchicalConfig{
		"gather-ring-seq":     {LeaderAlg: LeaderRing, Overlap: false},
		"gather-ring-overlap": {LeaderAlg: LeaderRing, Overlap: true},
		"gather-rd-seq":       {LeaderAlg: LeaderRD, Overlap: false},
		"gather-rd-overlap":   {LeaderAlg: LeaderRD, Overlap: true},
		"nodeag-ring-overlap": {NodeAllgather: DirectSpreadAllgather, LeaderAlg: LeaderRing, Overlap: true},
		"nodeag-rd-overlap":   {NodeAllgather: DirectSpreadAllgather, LeaderAlg: LeaderRD, Overlap: true},
		"nodeag-ring-seq":     {NodeAllgather: RingAllgather, LeaderAlg: LeaderRing, Overlap: false},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		for _, s := range shapes {
			for _, m := range []int{16, 512} {
				t.Run(fmt.Sprintf("%s/%dx%d/m=%d", name, s.nodes, s.ppn, m), func(t *testing.T) {
					runAllgather(t, s.nodes, s.ppn, 2, m, func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
						HierarchicalAllgather(p, w, send, recv, cfg)
					})
				})
			}
		}
	}
}

func TestKandallaAndMamidalaMatchOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{2, 4}, {4, 4}, {3, 2}} {
		runAllgather(t, s.nodes, s.ppn, 2, 256, KandallaAllgather)
		runAllgather(t, s.nodes, s.ppn, 2, 256, MamidalaAllgather)
	}
}

func TestOverlapIsFasterAtScale(t *testing.T) {
	// The overlap claim of Section 3.2: streaming phase 3 through shared
	// memory while phase 2 is on the wire beats sequential phases.
	m := 64 << 10
	seq := runTimedAllgather(t, 8, 8, 2, m, HierarchicalConfig{LeaderAlg: LeaderRing, Overlap: false})
	ovl := runTimedAllgather(t, 8, 8, 2, m, HierarchicalConfig{LeaderAlg: LeaderRing, Overlap: true})
	if ovl >= seq {
		t.Fatalf("overlap (%v) not faster than sequential (%v)", ovl, seq)
	}
}

// runTimedAllgather runs a phantom-mode hierarchical allgather for timing.
func runTimedAllgather(t *testing.T, nodes, ppn, hcas, m int, cfg HierarchicalConfig) sim.Time {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, hcas), Phantom: true})
	n := w.Topo().Size()
	err := w.Run(func(p *mpi.Proc) {
		HierarchicalAllgather(p, w, mpi.Phantom(m), mpi.Phantom(n*m), cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Makespan()
}

func TestArrivalOrderCoversAllNodes(t *testing.T) {
	for _, alg := range []LeaderAlg{LeaderRing, LeaderRD} {
		for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
			for node := 0; node < n; node++ {
				seen := map[int]bool{}
				order := arrivalOrder(alg, n, node)
				for k := 0; k < order.groups(); k++ {
					lo, ln := order.group(k)
					for b := lo; b < lo+ln; b++ {
						if seen[b] {
							t.Fatalf("%v n=%d node=%d: block %d twice", alg, n, node, b)
						}
						seen[b] = true
					}
				}
				if len(seen) != n {
					t.Fatalf("%v n=%d node=%d: %d blocks, want %d", alg, n, node, len(seen), n)
				}
				if lo, ln := order.group(0); ln != 1 || lo != node {
					t.Fatalf("%v n=%d node=%d: first group [%d,+%d), want own block", alg, n, node, lo, ln)
				}
			}
		}
	}
}

// f64buf builds a little-endian float64 buffer with value base+i.
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

type allreduceFn func(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, red Reducer)

func runAllreduce(t *testing.T, nodes, ppn, elems int, alg allreduceFn) {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, 2)})
	n := w.Topo().Size()
	err := w.Run(func(p *mpi.Proc) {
		buf := f64buf(float64(p.Rank()), elems)
		alg(p, w.CommWorld(), buf, SumF64())
		for i := 0; i < elems; i++ {
			// sum over r of (r + i) = n(n-1)/2 + n*i
			want := float64(n*(n-1))/2 + float64(n*i)
			if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
				t.Errorf("%dx%d elems=%d rank %d: elem %d = %v, want %v",
					nodes, ppn, elems, p.Rank(), i, got, want)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingAllreduceMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn, elems int }{
		{1, 1, 4}, {1, 2, 1}, {1, 4, 16}, {2, 2, 7}, {4, 2, 64}, {3, 3, 10}, {2, 5, 33},
	} {
		runAllreduce(t, s.nodes, s.ppn, s.elems, RingAllreduce)
	}
}

func TestRDAllreduceMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn, elems int }{
		{1, 2, 4}, {1, 4, 8}, {2, 2, 16}, {1, 3, 4}, {3, 2, 8}, {5, 1, 2}, {1, 7, 5},
	} {
		runAllreduce(t, s.nodes, s.ppn, s.elems, RDAllreduce)
	}
}

func TestReduceScatterOwnership(t *testing.T) {
	// After reduce-scatter, rank r must hold the fully reduced chunk r.
	w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 1)})
	n := 4
	elems := 8
	err := w.Run(func(p *mpi.Proc) {
		buf := f64buf(float64(p.Rank()*100), elems)
		ReduceScatterRing(p, w.CommWorld(), buf, SumF64())
		off, ln := chunkOf(buf.Len(), n, p.Rank())
		for i := off / 8; i < (off+ln)/8; i++ {
			want := float64(100*(n*(n-1))/2) + float64(n*i)
			if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
				t.Errorf("rank %d chunk elem %d = %v, want %v", p.Rank(), i, got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceViaAllgatherMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn int }{{2, 2}, {4, 2}, {2, 4}} {
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		n := w.Topo().Size()
		elems := 4 * n // multiple of n so chunks are uniform
		err := w.Run(func(p *mpi.Proc) {
			buf := f64buf(float64(p.Rank()), elems)
			AllreduceViaAllgather(p, w.CommWorld(), buf, SumF64(),
				func(p *mpi.Proc, send, recv mpi.Buf) {
					HierarchicalAllgather(p, w, send, recv, HierarchicalConfig{
						NodeAllgather: DirectSpreadAllgather,
						LeaderAlg:     LeaderRing,
						Overlap:       true,
					})
				})
			for i := 0; i < elems; i++ {
				want := float64(n*(n-1))/2 + float64(n*i)
				if got := f64at(buf, i); math.Abs(got-want) > 1e-9 {
					t.Errorf("rank %d elem %d = %v want %v", p.Rank(), i, got, want)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestProfilesProduceCorrectResults(t *testing.T) {
	for _, prof := range []Profile{HPCX(), MVAPICH2X()} {
		prof := prof
		for _, m := range []int{64, 16 << 10} { // below and above switch points
			runAllgather(t, 2, 4, 2, m, prof.Allgather)
		}
		// Allreduce via profile.
		w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 2)})
		n := w.Topo().Size()
		err := w.Run(func(p *mpi.Proc) {
			buf := f64buf(float64(p.Rank()), 16)
			prof.Allreduce(p, w, buf, SumF64())
			want := float64(n*(n-1)) / 2
			if got := f64at(buf, 0); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s allreduce elem 0 = %v, want %v", prof.Name, got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestChunkOfPartition(t *testing.T) {
	f := func(rawN uint16, rawParts uint8) bool {
		n := (int(rawN)%2048 + 1) * 8
		parts := int(rawParts)%16 + 1
		total := 0
		prevEnd := 0
		for i := 0; i < parts; i++ {
			off, ln := chunkOf(n, parts, i)
			if off != prevEnd || ln < 0 || off%8 != 0 || ln%8 != 0 {
				return false
			}
			prevEnd = off + ln
			total += ln
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every flat allgather yields the oracle on random small shapes.
func TestQuickFlatAllgatherCorrect(t *testing.T) {
	algs := []allgatherFn{flat(RingAllgather), flat(RDAllgather), flat(BruckAllgather), flat(DirectSpreadAllgather)}
	f := func(nodes, ppn, which uint8, mRaw uint16) bool {
		nd := int(nodes)%3 + 1
		l := int(ppn)%4 + 1
		m := int(mRaw)%256 + 1
		alg := algs[int(which)%len(algs)]
		w := mpi.New(mpi.Config{Topo: topology.New(nd, l, 2)})
		n := w.Topo().Size()
		want := string(expectedAllgather(n, m))
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			alg(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
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

// Property: hierarchical allgather (any phase-2 alg, overlap on/off)
// matches the oracle on random shapes.
func TestQuickHierarchicalCorrect(t *testing.T) {
	f := func(nodes, ppn uint8, rd, overlap, nodeag bool, mRaw uint16) bool {
		nd := int(nodes)%5 + 1
		l := int(ppn)%4 + 1
		m := (int(mRaw)%64 + 1) * 8
		cfg := HierarchicalConfig{LeaderAlg: LeaderRing, Overlap: overlap}
		if rd {
			cfg.LeaderAlg = LeaderRD
		}
		if nodeag {
			cfg.NodeAllgather = DirectSpreadAllgather
		}
		w := mpi.New(mpi.Config{Topo: topology.New(nd, l, 2)})
		n := w.Topo().Size()
		want := string(expectedAllgather(n, m))
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			HierarchicalAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv, cfg)
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

func TestLeaderAlgString(t *testing.T) {
	if LeaderRing.String() != "ring" || LeaderRD.String() != "rd" {
		t.Fatal("LeaderAlg strings")
	}
	if LeaderAlg(9).String() == "" {
		t.Fatal("unknown alg string empty")
	}
}

func TestAllgatherArgCheck(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 2, 1)})
	err := w.Run(func(p *mpi.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("size mismatch should panic")
			}
		}()
		RingAllgather(p, w.CommWorld(), mpi.Phantom(8), mpi.Phantom(8)) // needs 16
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat64SumReduce(t *testing.T) {
	a := f64buf(1, 4)
	b := f64buf(10, 4)
	SumF64().Reduce(a, b)
	for i := 0; i < 4; i++ {
		want := (1 + float64(i)) + (10 + float64(i))
		if got := f64at(a, i); got != want {
			t.Fatalf("elem %d = %v, want %v", i, got, want)
		}
	}
	// Phantom reduce must be a no-op without panicking.
	SumF64().Reduce(mpi.Phantom(16), mpi.Phantom(16))
	if SumF64().Cost(8<<20) <= 0 {
		t.Fatal("reduction cost should be positive")
	}
	var zero Float64Sum
	if zero.Cost(1024) <= 0 {
		t.Fatal("zero-valued reducer should fall back to a default rate")
	}
}

func TestMultiLeaderAllgatherMatchesOracle(t *testing.T) {
	for _, s := range []struct{ nodes, ppn, groups int }{
		{2, 4, 1}, {2, 4, 2}, {2, 4, 4}, {3, 6, 3}, {4, 2, 2}, {1, 4, 2}, {2, 1, 1},
	} {
		w := mpi.New(mpi.Config{Topo: topology.New(s.nodes, s.ppn, 2)})
		n := w.Topo().Size()
		m := 96
		want := string(expectedAllgather(n, m))
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(n * m)
			MultiLeaderAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv, s.groups)
			if string(recv.Data()) != want {
				t.Errorf("%+v: rank %d wrong", s, p.Rank())
			}
		})
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
	}
}

func TestMultiLeaderBlendBottleneck(t *testing.T) {
	// The paper's Section 1.1 critique of the multi-leader design: with
	// several leaders per node, the phase-2 ring blends intra-node and
	// inter-node hops and serializes on the slower intra-node ones, so
	// more groups make large-message allgathers SLOWER -- the motivation
	// for the single-leader decoupling in MHA-inter.
	m := 256 << 10
	run := func(groups int) sim.Time {
		w := mpi.New(mpi.Config{Topo: topology.New(4, 8, 2), Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			MultiLeaderAllgather(p, w, mpi.Phantom(m), mpi.Phantom(m*p.Size()), groups)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Makespan()
	}
	one, two := run(1), run(2)
	if two <= one {
		t.Fatalf("expected the blend bottleneck: 2 groups (%v) vs 1 group (%v)", two, one)
	}
}

func TestMultiLeaderBadGroupsPanics(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 4, 1)})
	err := w.Run(func(p *mpi.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("3 groups over PPN 4 should panic")
			}
		}()
		MultiLeaderAllgather(p, w, mpi.Phantom(8), mpi.Phantom(32), 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommNamedSharedAcrossRanks(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 4, 1)})
	err := w.Run(func(p *mpi.Proc) {
		c1 := p.World().CommNamed("test", func() []int { return []int{0, 1, 2, 3} })
		c2 := p.World().CommNamed("test", func() []int { return []int{0, 1, 2, 3} })
		if c1 != c2 {
			t.Error("CommNamed returned different objects for the same key")
		}
		c1.Barrier(p) // all four ranks must share it for the barrier to pass
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtremeReducers(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(2, 2, 2)})
	n := w.Topo().Size()
	err := w.Run(func(p *mpi.Proc) {
		// Rank r holds r, r+1, ...; max over ranks is n-1+i, min is i.
		buf := f64buf(float64(p.Rank()), 4)
		RingAllreduce(p, w.CommWorld(), buf, MaxF64())
		for i := 0; i < 4; i++ {
			if got, want := f64at(buf, i), float64(n-1+i); got != want {
				t.Errorf("max elem %d = %v want %v", i, got, want)
			}
		}
		buf2 := f64buf(float64(p.Rank()), 4)
		RDAllreduce(p, w.CommWorld(), buf2, MinF64())
		for i := 0; i < 4; i++ {
			if got, want := f64at(buf2, i), float64(i); got != want {
				t.Errorf("min elem %d = %v want %v", i, got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phantom reduce is a costed no-op.
	MaxF64().Reduce(mpi.Phantom(8), mpi.Phantom(8))
	if MaxF64().Cost(1<<20) <= 0 {
		t.Fatal("extreme reducer should cost time")
	}
	var zero Float64Extreme
	if zero.Cost(8) <= 0 {
		t.Fatal("zero-value reducer should fall back to a default rate")
	}
}
