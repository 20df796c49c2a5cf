package compose_test

import (
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/topology"
)

func TestHierarchyRoundTrip(t *testing.T) {
	specs := []string{
		"world nodes=1 ppn=1 hcas=1 layout=block",
		"world nodes=4 ppn=8 hcas=2 layout=block",
		"world nodes=2 ppn=4 hcas=4 layout=cyclic",
		"world nodes=3 ppn=6 hcas=2 layout=block sockets=2",
	}
	for _, spec := range specs {
		h, err := compose.ParseHierarchy(spec)
		if err != nil {
			t.Fatalf("ParseHierarchy(%q): %v", spec, err)
		}
		if got := h.String(); got != spec {
			t.Errorf("round trip: %q -> %q", spec, got)
		}
		again, err := compose.ParseHierarchy(h.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", h.String(), err)
		}
		if !again.Topo.Equal(h.Topo) {
			t.Errorf("reparse changed topo: %+v vs %+v", again.Topo, h.Topo)
		}
	}
}

func TestHierarchyDefaults(t *testing.T) {
	h, err := compose.ParseHierarchy("world nodes=2 ppn=3")
	if err != nil {
		t.Fatal(err)
	}
	want := topology.Cluster{Nodes: 2, PPN: 3, HCAs: 1, Layout: topology.Block}
	if !h.Topo.Equal(want) {
		t.Errorf("defaults: got %+v, want %+v", h.Topo, want)
	}
}

func TestHierarchyErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"nodes=2 ppn=2",
		"world nodes=2",
		"world nodes=2 ppn=2 layout=banana",
		"world nodes=2 ppn=2 nodes=3",
		"world nodes=0 ppn=2",
		"world nodes=2 ppn=2 rails=2",
		"world nodes=3037000499 ppn=3037000499", // past sched.MaxRanks
	} {
		if _, err := compose.ParseHierarchy(spec); err == nil {
			t.Errorf("ParseHierarchy(%q): expected error", spec)
		}
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := compose.NewHierarchy(topology.Cluster{Nodes: 4, PPN: 8, HCAs: 2, Layout: topology.Block})
	lv := h.Levels()
	if len(lv) != 4 {
		t.Fatalf("want 4 levels, got %d", len(lv))
	}
	checks := []struct {
		name         string
		groups, size int
	}{
		{"world", 1, 32},
		{"node", 4, 8},
		{"leader-group", 1, 4},
		{"rail", 4, 2},
	}
	for i, c := range checks {
		if lv[i].Name != c.name || lv[i].Groups != c.groups || lv[i].Size != c.size {
			t.Errorf("level %d: got %+v, want %+v", i, lv[i], c)
		}
	}
	desc := h.Describe()
	for _, c := range checks {
		if !strings.Contains(desc, c.name) {
			t.Errorf("Describe missing level %q:\n%s", c.name, desc)
		}
	}
}
