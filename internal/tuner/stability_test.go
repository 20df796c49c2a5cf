package tuner

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestDecisionsPinned is the cold path's answer sheet: the daemon's
// default service synthesizes the repository benchmark's 55 tuner-serve
// keys (every small shape at three sizes, healthy and with rail 1 at
// half rate, plus one 128-rank shape), a dead-rail machine and a
// three-rail degraded one, and the SHA-256 over the Decision.Raw bytes in
// that order must equal the digest recorded before the analyzer and the
// schedule executors were rewritten for speed. Raw carries the winner's
// name, analyzer cost, simulated makespan, pruning verdict and the whole
// schedule, so a search that prices, orders or measures any candidate
// differently moves it. -short keeps the shapes of at most 16 ranks.
func TestDecisionsPinned(t *testing.T) {
	var qs []Query
	for _, nodes := range []int{2, 4, 8} {
		for _, ppn := range []int{2, 4, 8} {
			for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
				for _, health := range [][]float64{nil, {1, 0.5}} {
					qs = append(qs, Query{Nodes: nodes, PPN: ppn, HCAs: 2, Msg: msg, Health: health})
				}
			}
		}
	}
	qs = append(qs,
		Query{Nodes: 8, PPN: 16, HCAs: 2, Msg: 64 << 10},
		Query{Nodes: 4, PPN: 4, HCAs: 2, Msg: 64 << 10, Health: []float64{0, 1}},
		Query{Nodes: 2, PPN: 4, HCAs: 3, Msg: 256 << 10, Health: []float64{1, 0.5, 0.25}})
	want := "4880838cc49dba08898af29e81efb13f1dd9ebdbe95340338dab923586935636"
	if testing.Short() {
		want = "0ce0506183ceccd7ad15bd8612a003bf6e83e83aff55a4f4f7edb1f319c4a4fc"
	}
	svc := New(Config{Capacity: 512})
	h := sha256.New()
	for _, q := range qs {
		if testing.Short() && q.Nodes*q.PPN > 16 {
			continue
		}
		res, err := svc.Decide(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		h.Write(res.Raw)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("decisions moved: digest %s, recorded %s", got, want)
	}
}
