package mpi

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mha/internal/topology"
)

// TestCommIndexMatchesMap: a communicator's world-rank -> comm-rank lookup
// answers as a map built from its rank list would, for every world rank
// and a few outside the world, whether the comm is indexed arithmetically
// (the world, node and leader comms under block and cyclic layouts, any
// progression) or by a map (shuffled and descending lists). Rank is
// checked from each rank's own body, Contains from outside.
func TestCommIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, topo := range []topology.Cluster{
		topology.New(4, 4, 2),
		{Nodes: 4, PPN: 4, HCAs: 2, Layout: topology.Cyclic},
		topology.New(3, 1, 1),
	} {
		w := New(Config{Topo: topo, Phantom: true})
		size := topo.Size()
		comms := map[string]*Comm{"world": w.CommWorld(), "leaders": w.LeaderComm()}
		for n := 0; n < topo.Nodes; n++ {
			comms[fmt.Sprint("node", n)] = w.NodeComm(n)
		}
		for name, c := range comms {
			if c.index != nil {
				t.Errorf("%v: %s comm %v is indexed by a map, want arithmetic", topo, name, c.ranks)
			}
		}
		comms["empty"] = w.NewComm(nil)
		comms["singleton"] = w.NewComm([]int{size - 1})
		comms["shuffled"] = w.NewComm(rng.Perm(size))
		comms["descending"] = w.NewComm([]int{size - 1, 0})
		if size >= 7 {
			comms["stride 3"] = w.NewComm([]int{1, 4, 7})
			comms["progression, then not"] = w.NewComm([]int{0, 2, 4, 5})
		}
		ref := map[string]map[int]int{}
		for name, c := range comms {
			ref[name] = map[int]int{}
			for i, r := range c.ranks {
				ref[name][r] = i
			}
			for r := -2; r < size+2; r++ {
				if _, want := ref[name][r]; (c.rankOf(r) >= 0) != want {
					t.Errorf("%v: %s comm %v: rankOf(%d) >= 0 is %v, want %v", topo, name, c.ranks, r, !want, want)
				}
			}
		}
		err := w.Run(func(p *Proc) {
			for name, c := range comms {
				want, ok := ref[name][p.Rank()]
				if !ok {
					want = -1
				}
				if got := c.Rank(p); got != want {
					t.Errorf("%v: %s comm %v: Rank of world rank %d = %d, want %d", topo, name, c.ranks, p.Rank(), got, want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommDuplicateRankPanics: a rank listed twice is refused whether the
// repeat breaks an arithmetic progression at once (stride 0), later on, or
// comes after the index has fallen back to a map.
func TestCommDuplicateRankPanics(t *testing.T) {
	w := New(Config{Topo: topology.New(2, 4, 1), Phantom: true})
	for _, ranks := range [][]int{{3, 3}, {0, 1, 2, 1}, {5, 2, 5}, {0, 2, 4, 3, 2}} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "duplicate rank") {
					t.Errorf("NewComm(%v) panicked with %v, want a duplicate rank", ranks, r)
				}
			}()
			w.NewComm(ranks)
		}()
	}
}
