package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBlockMapping(t *testing.T) {
	c := New(4, 8, 2)
	if c.Size() != 32 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.NodeOf(0) != 0 || c.NodeOf(7) != 0 || c.NodeOf(8) != 1 || c.NodeOf(31) != 3 {
		t.Fatal("block NodeOf wrong")
	}
	if c.LocalOf(9) != 1 || c.RankOf(1, 1) != 9 {
		t.Fatal("block LocalOf/RankOf wrong")
	}
	if c.LeaderOf(2) != 16 || !c.IsLeader(16) || c.IsLeader(17) {
		t.Fatal("leader wrong")
	}
	if !c.SameNode(8, 15) || c.SameNode(7, 8) {
		t.Fatal("SameNode wrong")
	}
}

func TestCyclicMapping(t *testing.T) {
	c := Cluster{Nodes: 3, PPN: 2, HCAs: 1, Layout: Cyclic}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NodeOf(4) != 1 || c.LocalOf(4) != 1 {
		t.Fatalf("cyclic NodeOf(4)=%d LocalOf(4)=%d", c.NodeOf(4), c.LocalOf(4))
	}
	if c.RankOf(1, 1) != 4 {
		t.Fatalf("cyclic RankOf(1,1)=%d", c.RankOf(1, 1))
	}
}

func TestNodeRanksAndLeaders(t *testing.T) {
	c := New(3, 2, 1)
	if got := c.NodeRanks(1); got[0] != 2 || got[1] != 3 {
		t.Fatalf("NodeRanks(1) = %v", got)
	}
	if got := c.Leaders(); len(got) != 3 || got[2] != 4 {
		t.Fatalf("Leaders = %v", got)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	bad := []Cluster{
		{Nodes: 0, PPN: 1, HCAs: 1},
		{Nodes: 1, PPN: 0, HCAs: 1},
		{Nodes: 1, PPN: 1, HCAs: 0},
		{Nodes: 1, PPN: 1, HCAs: 1, Layout: Layout(9)},
		{Nodes: 1, PPN: 1, HCAs: 1, Sockets: -1},
		{Nodes: math.MaxInt/2 + 1, PPN: 2, HCAs: 1}, // rank count overflows int
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: %+v should not validate", i, c)
		}
	}
}

// Regression: a zero-HCA node entry used to be representable and
// silently produced empty transfer plans; it must now be rejected with
// a typed error naming the field.
func TestValidateRejectsZeroHCANode(t *testing.T) {
	c := Cluster{Nodes: 3, PPN: 2, HCAs: 2, NodeHCAs: []int{2, 0, 1}}
	err := c.Validate()
	if err == nil {
		t.Fatal("zero-HCA node should not validate")
	}
	var te *Error
	if !errors.As(err, &te) || te.Field != "NodeHCAs" {
		t.Fatalf("want *topology.Error on NodeHCAs, got %v", err)
	}
}

// Regression: a custom placement listing a rank twice must be rejected
// with a typed error instead of building a world where the duplicate
// shadows a missing rank.
func TestValidateRejectsDuplicateRanks(t *testing.T) {
	c := Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: Custom,
		Ranks: [][]int{{0, 1}, {1, 3}}}
	err := c.Validate()
	if err == nil {
		t.Fatal("duplicate rank placement should not validate")
	}
	var te *Error
	if !errors.As(err, &te) || te.Field != "Ranks" {
		t.Fatalf("want *topology.Error on Ranks, got %v", err)
	}
}

func TestHeterogeneousShapes(t *testing.T) {
	bad := []Cluster{
		{Nodes: 2, PPN: 1, HCAs: 2, NodeHCAs: []int{2}},                       // wrong length
		{Nodes: 2, PPN: 1, HCAs: 2, NodeHCAs: []int{2, 3}},                    // above max
		{Nodes: 2, PPN: 1, HCAs: 2, RailBW: []float64{1}},                     // wrong length
		{Nodes: 2, PPN: 1, HCAs: 2, RailBW: []float64{1, 0}},                  // zero scale
		{Nodes: 2, PPN: 1, HCAs: 1, Ranks: [][]int{{0}, {1}}},                 // ranks without custom
		{Nodes: 2, PPN: 1, HCAs: 1, Layout: Custom},                           // custom without ranks
		{Nodes: 2, PPN: 1, HCAs: 1, Layout: Custom, Ranks: [][]int{{0}, {2}}}, // out of range
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: %+v should not validate", i, c)
		}
	}
	c := Cluster{Nodes: 3, PPN: 2, HCAs: 2,
		NodeHCAs: []int{2, 1, 2}, RailBW: []float64{1, 0.5}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.HCAsOf(0) != 2 || c.HCAsOf(1) != 1 {
		t.Fatal("HCAsOf wrong")
	}
	if c.RailScale(0) != 1 || c.RailScale(1) != 0.5 {
		t.Fatal("RailScale wrong")
	}
	if !c.Heterogeneous() {
		t.Fatal("mixed shape should report heterogeneous")
	}
	if c.MinHCAs() != 1 || New(2, 2, 2).MinHCAs() != 2 {
		t.Fatal("MinHCAs wrong")
	}
	node := c.SingleNode(2)
	if err := node.Validate(); err != nil {
		t.Fatalf("single-node projection does not validate: %v", err)
	}
	if !node.Equal(New(1, 2, 1)) {
		t.Fatalf("single-node projection = %+v, want a plain 1x2x1", node)
	}
	if New(2, 2, 2).Heterogeneous() {
		t.Fatal("uniform shape should not report heterogeneous")
	}
	if New(2, 2, 2).HCAsOf(1) != 2 || New(2, 2, 2).RailScale(1) != 1 {
		t.Fatal("uniform defaults wrong")
	}
}

func TestCustomLayoutMapping(t *testing.T) {
	c := Cluster{Nodes: 2, PPN: 2, HCAs: 1, Layout: Custom,
		Ranks: [][]int{{3, 0}, {2, 1}}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NodeOf(3) != 0 || c.LocalOf(3) != 0 || c.NodeOf(1) != 1 || c.LocalOf(1) != 1 {
		t.Fatal("custom NodeOf/LocalOf wrong")
	}
	if c.RankOf(1, 0) != 2 || c.LeaderOf(0) != 3 {
		t.Fatal("custom RankOf/LeaderOf wrong")
	}
	for r := 0; r < c.Size(); r++ {
		if c.RankOf(c.NodeOf(r), c.LocalOf(r)) != r {
			t.Fatalf("custom round-trip broken at rank %d", r)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := New(2, 2, 1)
	for _, fn := range []func(){
		func() { c.NodeOf(-1) },
		func() { c.NodeOf(4) },
		func() { c.RankOf(2, 0) },
		func() { c.RankOf(0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: RankOf inverts (NodeOf, LocalOf) for both layouts.
func TestQuickMappingRoundTrip(t *testing.T) {
	f := func(nodes, ppn uint8, layout bool, rank uint16) bool {
		c := Cluster{Nodes: int(nodes)%16 + 1, PPN: int(ppn)%16 + 1, HCAs: 1}
		if layout {
			c.Layout = Cyclic
		}
		r := int(rank) % c.Size()
		return c.RankOf(c.NodeOf(r), c.LocalOf(r)) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every node has exactly PPN ranks and exactly one leader.
func TestQuickNodePartition(t *testing.T) {
	f := func(nodes, ppn uint8, layout bool) bool {
		c := Cluster{Nodes: int(nodes)%8 + 1, PPN: int(ppn)%8 + 1, HCAs: 1}
		if layout {
			c.Layout = Cyclic
		}
		seen := map[int]bool{}
		for n := 0; n < c.Nodes; n++ {
			rs := c.NodeRanks(n)
			if len(rs) != c.PPN {
				return false
			}
			leaders := 0
			for _, r := range rs {
				if seen[r] {
					return false
				}
				seen[r] = true
				if c.NodeOf(r) != n {
					return false
				}
				if c.IsLeader(r) {
					leaders++
				}
			}
			if leaders != 1 {
				return false
			}
		}
		return len(seen) == c.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	if Block.String() != "block" || Cyclic.String() != "cyclic" {
		t.Fatal("layout strings")
	}
	if Layout(7).String() == "" {
		t.Fatal("unknown layout string empty")
	}
	if New(2, 2, 2).String() == "" {
		t.Fatal("cluster string empty")
	}
}

func TestSocketMapping(t *testing.T) {
	c := Cluster{Nodes: 2, PPN: 8, HCAs: 2, Sockets: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumaSockets() != 2 {
		t.Fatal("NumaSockets")
	}
	for l := 0; l < 4; l++ {
		if c.SocketOf(l) != 0 {
			t.Fatalf("local %d should be socket 0", l)
		}
	}
	for l := 4; l < 8; l++ {
		if c.SocketOf(l) != 1 {
			t.Fatalf("local %d should be socket 1", l)
		}
	}
	if !c.SameSocket(0, 3) || c.SameSocket(3, 4) {
		t.Fatal("SameSocket wrong")
	}
	got := c.SocketLocals(1)
	if len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Fatalf("SocketLocals(1) = %v", got)
	}
}

func TestFlatTopologySockets(t *testing.T) {
	c := New(2, 4, 1) // Sockets zero: flat
	if c.NumaSockets() != 1 {
		t.Fatal("flat node should report 1 socket")
	}
	for l := 0; l < 4; l++ {
		if c.SocketOf(l) != 0 {
			t.Fatal("flat node locals all on socket 0")
		}
	}
}

func TestSocketValidation(t *testing.T) {
	c := Cluster{Nodes: 1, PPN: 6, HCAs: 1, Sockets: 4} // 6 % 4 != 0
	if c.Validate() == nil {
		t.Fatal("indivisible socket split should fail")
	}
}

func TestSocketPanics(t *testing.T) {
	c := Cluster{Nodes: 1, PPN: 4, HCAs: 1, Sockets: 2}
	for _, fn := range []func(){
		func() { c.SocketOf(-1) },
		func() { c.SocketOf(4) },
		func() { c.SocketLocals(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: socket groups partition the node's locals.
func TestQuickSocketPartition(t *testing.T) {
	f := func(perSock, socks uint8) bool {
		s := int(socks)%4 + 1
		c := Cluster{Nodes: 1, PPN: s * (int(perSock)%5 + 1), HCAs: 1, Sockets: s}
		if c.Validate() != nil {
			return false
		}
		seen := map[int]bool{}
		for sock := 0; sock < s; sock++ {
			for _, l := range c.SocketLocals(sock) {
				if seen[l] || c.SocketOf(l) != sock {
					return false
				}
				seen[l] = true
			}
		}
		return len(seen) == c.PPN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
