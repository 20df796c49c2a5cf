package fabric

import (
	"strings"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/topology"
)

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "flat"},
		{"flat", "flat"},
		{"ft:arity=4", "ft:arity=4,levels=2,over=1"},
		{"ft:arity=4,levels=2,over=2", "ft:arity=4,levels=2,over=2"},
		{"ft:arity=4,over=2:1", "ft:arity=4,levels=2,over=2"},
		{"ft:arity=2,over=4:1/2:1", "ft:arity=2,levels=3,over=4/2"},
		{"ft:arity=2,levels=3,over=2", "ft:arity=2,levels=3,over=2/1"},
		{"fattree:arity=8,over=3:2", "ft:arity=8,levels=2,over=1.5"},
		{"dfly:groups=2,routers=2", "dfly:groups=2,routers=2,nodes=1,local=1,global=1"},
		{"dfly:groups=2,routers=2,nodes=2,local=1,global=2:1",
			"dfly:groups=2,routers=2,nodes=2,local=1,global=2"},
		{"dragonfly:groups=4,routers=4,nodesper=2,global=2",
			"dfly:groups=4,routers=4,nodes=2,local=1,global=2"},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical text round-trips to the identical spec.
		again, err := ParseSpec(s.String())
		if err != nil || again.String() != s.String() {
			t.Errorf("canonical %q does not round-trip (%v)", s.String(), err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"mesh:x=2", "ft", "ft:", "ft:levels=2", "ft:arity=0", "ft:arity=-3",
		"ft:arity=4,arity=4", "ft:arity=4,bogus=1", "ft:arity=4,over=0.5",
		"ft:arity=4,over=2:0", "ft:arity=4,over=nope", "ft:arity=4,levels=99",
		"ft:arity=4,levels=1", "ft:arity=4,over=1/1/1/1/1/1/1/1/1",
		"ft:arity=4,over=NaN", "ft:arity=4,over=+Inf",
		"dfly:groups=2", "dfly:routers=2", "dfly:groups=0,routers=2",
		"dfly:groups=2,routers=2,local=0.2", "dfly:groups=2,routers=2,nodes=",
		"dfly:groups=99999,routers=2",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) should fail", in)
		}
	}
}

// A two-level tree's leaf uplinks carry the full leaf's injection
// divided by the taper, on a partially filled leaf too.
func TestTwoLevelUplinkCapacity(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(7, 2, 2) // 3 leaves, last one partial
	nw, err := Build(nil, TwoLevel(3, 2), topo, prm)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * float64(topo.HCAs) * prm.BWHCA / 2
	for _, l := range nw.Links() {
		if l.BW != want {
			t.Fatalf("link %s capacity %v, want %v", l.Name, l.BW, want)
		}
	}
	if len(nw.Links()) != 6 {
		t.Fatalf("want 3 leaves x up/down, got %d links", len(nw.Links()))
	}
}

func TestFatTreeRouting(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(8, 1, 2)
	nw, err := Build(nil, MustParse("ft:arity=2,levels=3,over=2/2"), topo, prm)
	if err != nil {
		t.Fatal(err)
	}
	names := func(src, dst int) string {
		var ns []string
		for _, l := range nw.Route(src, dst) {
			ns = append(ns, l.Name)
		}
		return strings.Join(ns, " ")
	}
	if got := names(0, 1); got != "" {
		t.Fatalf("same leaf should use no shared links, got %q", got)
	}
	if got := names(0, 2); got != "ft.l1.s0.up ft.l1.s1.down" {
		t.Fatalf("adjacent-leaf route %q", got)
	}
	if got := names(0, 7); got != "ft.l1.s0.up ft.l2.s0.up ft.l2.s1.down ft.l1.s3.down" {
		t.Fatalf("cross-core route %q", got)
	}
	if got := names(7, 0); got != "ft.l1.s3.up ft.l2.s1.up ft.l2.s0.down ft.l1.s0.down" {
		t.Fatalf("reverse cross-core route %q", got)
	}
	// Taper compounds down the tree: level-2 trunks see arity^2 nodes
	// through over[0]*over[1].
	l1 := nw.Route(0, 2)[0].BW
	l2 := nw.Route(0, 7)[1].BW
	if l1 != 2*2*prm.BWHCA/2 || l2 != 4*2*prm.BWHCA/4 {
		t.Fatalf("trunk capacities l1=%v l2=%v", l1, l2)
	}
}

func TestDragonflyRouting(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.New(8, 1, 2)
	nw, err := Build(nil, MustParse("dfly:groups=2,routers=2,nodes=2,global=2"), topo, prm)
	if err != nil {
		t.Fatal(err)
	}
	names := func(src, dst int) string {
		var ns []string
		for _, l := range nw.Route(src, dst) {
			ns = append(ns, l.Name)
		}
		return strings.Join(ns, " ")
	}
	if got := names(0, 1); got != "" {
		t.Fatalf("same router should use no shared links, got %q", got)
	}
	if got := names(0, 2); got != "dfly.g0.r0-r1" {
		t.Fatalf("intra-group route %q", got)
	}
	// Gateway for groups (0,1) is router (0+1)%2 = 1: node 0 (g0,r0)
	// hops to r1, crosses, lands on g1's gateway r1 which hosts node 6.
	if got := names(0, 6); got != "dfly.g0.r0-r1 dfly.g0-g1" {
		t.Fatalf("cross-group route via gateway %q", got)
	}
	if got := names(0, 4); got != "dfly.g0.r0-r1 dfly.g0-g1 dfly.g1.r1-r0" {
		t.Fatalf("full three-hop route %q", got)
	}
	// The global link is one shared cable for both directions.
	if nw.Route(0, 4)[1] != nw.Route(4, 0)[1] {
		t.Fatal("global link should be shared by both directions")
	}
	gl := nw.Route(0, 4)[1]
	if gl.BW != 2*2*prm.BWHCA/2 {
		t.Fatalf("global capacity %v", gl.BW)
	}
}

func TestDragonflyMustTileNodes(t *testing.T) {
	if _, err := Build(nil, MustParse("dfly:groups=2,routers=2,nodes=2"), topology.New(6, 1, 1), netmodel.Thor()); err == nil {
		t.Fatal("2x2x2 dragonfly on 6 nodes should fail")
	}
}

// Heterogeneous clusters shrink the trunks their weaker nodes feed.
func TestHeterogeneousCapacity(t *testing.T) {
	prm := netmodel.Thor()
	topo := topology.Cluster{Nodes: 4, PPN: 1, HCAs: 2, NodeHCAs: []int{2, 2, 1, 1}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	nw, err := Build(nil, MustParse("ft:arity=2,over=1"), topo, prm)
	if err != nil {
		t.Fatal(err)
	}
	fat := nw.Route(0, 2)[0].BW  // leaf 0: two 2-HCA nodes
	thin := nw.Route(2, 0)[0].BW // leaf 1: two 1-HCA nodes
	if fat != 4*prm.BWHCA || thin != 2*prm.BWHCA {
		t.Fatalf("hetero trunk capacities fat=%v thin=%v", fat, thin)
	}
}

func TestDescribe(t *testing.T) {
	prm := netmodel.Thor()
	for _, spec := range []string{"flat", "ft:arity=2,over=2", "dfly:groups=2,routers=2,nodes=2"} {
		nw, err := Build(nil, MustParse(spec), topology.New(8, 2, 2), prm)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		nw.Describe(&sb)
		if !strings.Contains(sb.String(), "shared links:") {
			t.Fatalf("describe(%s) = %q", spec, sb.String())
		}
	}
}
