package core

import (
	"math/rand"
	"testing"

	"mha/internal/collectives"
	"mha/internal/mpi"
	"mha/internal/topology"
)

// TestStressMixedCollectiveSequences runs randomized sequences of
// different collectives back-to-back on a single world — the epoch-based
// tag scheme must keep every operation's traffic isolated with no
// cross-matching and no deadlock, and every payload must still verify.
func TestStressMixedCollectiveSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		nodes := rng.Intn(3) + 1
		ppn := rng.Intn(3) + 1
		topo := topology.New(nodes, ppn, 2)
		n := topo.Size()
		m := (rng.Intn(32) + 1) * 8
		steps := rng.Intn(6) + 3
		ops := make([]int, steps)
		roots := make([]int, steps)
		for i := range ops {
			ops[i] = rng.Intn(6)
			roots[i] = rng.Intn(n)
		}
		w := mpi.New(mpi.Config{Topo: topo})
		err := w.Run(func(p *mpi.Proc) {
			for i, op := range ops {
				root := roots[i]
				switch op {
				case 0: // MHA allgather
					recv := mpi.NewBuf(n * m)
					MHAAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
					if string(recv.Data()) != expected(n, m) {
						t.Errorf("trial %d step %d: allgather wrong", trial, i)
					}
				case 1: // MHA bcast
					buf := mpi.NewBuf(m)
					if p.Rank() == root {
						buf.CopyFrom(mpi.Bytes(pattern(root, m)))
					}
					MHABcast(p, w, root, buf)
					if string(buf.Data()) != string(pattern(root, m)) {
						t.Errorf("trial %d step %d: bcast wrong", trial, i)
					}
				case 2: // flat ring allgather interleaved with MHA traffic
					recv := mpi.NewBuf(n * m)
					collectives.RingAllgather(p, w.CommWorld(), mpi.Bytes(pattern(p.Rank(), m)), recv)
					if string(recv.Data()) != expected(n, m) {
						t.Errorf("trial %d step %d: ring wrong", trial, i)
					}
				case 3: // MHA alltoall
					send := mpi.NewBuf(n * m)
					for d := 0; d < n; d++ {
						send.Slice(d*m, m).CopyFrom(mpi.Bytes(a2aPattern(p.Rank(), d, m)))
					}
					recv := mpi.NewBuf(n * m)
					MHAAlltoall(p, w, send, recv)
					for src := 0; src < n; src++ {
						if string(recv.Slice(src*m, m).Data()) != string(a2aPattern(src, p.Rank(), m)) {
							t.Errorf("trial %d step %d: alltoall wrong", trial, i)
							break
						}
					}
				case 4: // allreduce
					buf := f64buf(float64(p.Rank()), m/8*n/n) // m/8 elems
					collectives.RingAllreduce(p, w.CommWorld(), buf, collectives.SumF64())
				case 5: // MHA reduce
					buf := f64buf(1, 2)
					MHAReduce(p, w, root, buf, collectives.SumF64())
					if p.Rank() == root && f64at(buf, 0) != float64(n) {
						t.Errorf("trial %d step %d: reduce wrong", trial, i)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d (nodes=%d ppn=%d m=%d ops=%v): %v", trial, nodes, ppn, m, ops, err)
		}
	}
}

// TestStressRepeatedAllgatherReusesShm runs many MHA allgathers on one
// world; each epoch allocates fresh shm regions and counters, and none of
// them may interfere.
func TestStressRepeatedAllgatherReusesShm(t *testing.T) {
	topo := topology.New(3, 3, 2)
	n := topo.Size()
	m := 64
	w := mpi.New(mpi.Config{Topo: topo})
	err := w.Run(func(p *mpi.Proc) {
		for i := 0; i < 20; i++ {
			recv := mpi.NewBuf(n * m)
			MHAAllgather(p, w, mpi.Bytes(pattern(p.Rank(), m)), recv)
			if string(recv.Data()) != expected(n, m) {
				t.Errorf("iteration %d wrong", i)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
