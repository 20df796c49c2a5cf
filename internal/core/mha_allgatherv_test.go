package core

import (
	"testing"
	"testing/quick"

	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

// vExpected builds the oracle for variable counts.
func vExpected(counts []int) string {
	out := []byte{}
	for r, cnt := range counts {
		out = append(out, pattern(r, cnt)...)
	}
	return string(out)
}

func runAllgatherv(t *testing.T, nodes, ppn int, counts []int,
	alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, counts []int)) {
	t.Helper()
	w := mpi.New(mpi.Config{Topo: topology.New(nodes, ppn, 2)})
	total := 0
	for _, c := range counts {
		total += c
	}
	want := vExpected(counts)
	err := w.Run(func(p *mpi.Proc) {
		recv := mpi.NewBuf(total)
		alg(p, w, mpi.Bytes(pattern(p.Rank(), counts[p.Rank()])), recv, counts)
		if string(recv.Data()) != want {
			t.Errorf("%dx%d counts=%v: rank %d wrong", nodes, ppn, counts, p.Rank())
		}
	})
	if err != nil {
		t.Fatalf("%dx%d counts=%v: %v", nodes, ppn, counts, err)
	}
}

func TestAllgathervMatchesOracle(t *testing.T) {
	cases := []struct {
		nodes, ppn int
		counts     []int
	}{
		{1, 4, []int{5, 0, 17, 3}},
		{2, 2, []int{8, 8, 8, 8}},
		{2, 3, []int{1, 2, 3, 4, 5, 6}},
		{4, 2, []int{100, 0, 0, 50, 25, 12, 6, 3}},
		{3, 2, []int{0, 0, 7, 7, 0, 0}},
		{2, 1, []int{9, 4}},
	}
	for _, cs := range cases {
		runAllgatherv(t, cs.nodes, cs.ppn, cs.counts, MHAAllgatherv)
		runAllgatherv(t, cs.nodes, cs.ppn, cs.counts, FlatAllgatherv)
	}
}

func TestMHAAllgathervBeatsFlatAtScale(t *testing.T) {
	topo := topology.New(4, 8, 2)
	counts := make([]int, topo.Size())
	for i := range counts {
		counts[i] = 32<<10 + (i%5)*4096 // uneven, ~32-48KB
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	measure := func(alg func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf, counts []int)) sim.Duration {
		w := mpi.New(mpi.Config{Topo: topo, Phantom: true})
		err := w.Run(func(p *mpi.Proc) {
			alg(p, w, mpi.Phantom(counts[p.Rank()]), mpi.Phantom(total), counts)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Duration(w.Makespan())
	}
	mha := measure(MHAAllgatherv)
	flat := measure(FlatAllgatherv)
	if mha >= flat {
		t.Fatalf("MHA allgatherv (%v) not faster than flat ring (%v)", mha, flat)
	}
}

func TestAllgathervArgChecks(t *testing.T) {
	w := mpi.New(mpi.Config{Topo: topology.New(1, 2, 1)})
	err := w.Run(func(p *mpi.Proc) {
		check := func(fn func()) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}
		check(func() { // wrong counts length
			MHAAllgatherv(p, w, mpi.Phantom(4), mpi.Phantom(8), []int{4})
		})
		check(func() { // send size mismatch
			MHAAllgatherv(p, w, mpi.Phantom(3), mpi.Phantom(8), []int{4, 4})
		})
		check(func() { // recv size mismatch
			MHAAllgatherv(p, w, mpi.Phantom(4), mpi.Phantom(9), []int{4, 4})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: MHA allgatherv matches the oracle for random counts.
func TestQuickAllgathervCorrect(t *testing.T) {
	f := func(nodes, ppn uint8, raw []uint8) bool {
		nd := int(nodes)%3 + 1
		l := int(ppn)%3 + 1
		n := nd * l
		counts := make([]int, n)
		for i := range counts {
			if i < len(raw) {
				counts[i] = int(raw[i])
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		w := mpi.New(mpi.Config{Topo: topology.New(nd, l, 2)})
		want := vExpected(counts)
		ok := true
		err := w.Run(func(p *mpi.Proc) {
			recv := mpi.NewBuf(total)
			MHAAllgatherv(p, w, mpi.Bytes(pattern(p.Rank(), counts[p.Rank()])), recv, counts)
			if string(recv.Data()) != want {
				ok = false
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
