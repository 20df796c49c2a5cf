package topology

import (
	"strings"
	"testing"

	"mha/internal/kv"
)

var shapeKeys = []string{"nodes", "ppn", "hcas", "sockets", "layout", "nodehcas", "railbw"}

func decode(t *testing.T, line string, def Cluster) (Cluster, error) {
	t.Helper()
	set, err := kv.Parse(strings.Fields(line), shapeKeys...)
	if err != nil {
		t.Fatalf("kv.Parse(%q): %v", line, err)
	}
	return Decode(set, def)
}

func TestDecode(t *testing.T) {
	def := Cluster{Nodes: -1, PPN: -1, HCAs: 1, Sockets: 3, Layout: Cyclic,
		NodeHCAs: []int{1}, RailBW: []float64{0.5}}

	got, err := decode(t, "nodes=4 ppn=2 hcas=2 sockets=2 layout=block nodehcas=2/1/2/1 railbw=1/0.5", def)
	if err != nil {
		t.Fatal(err)
	}
	want := Cluster{Nodes: 4, PPN: 2, HCAs: 2, Sockets: 2, Layout: Block,
		NodeHCAs: []int{2, 1, 2, 1}, RailBW: []float64{1, 0.5}}
	if !got.Equal(want) {
		t.Errorf("every key given: got %#v, want %#v", got, want)
	}

	if got, err := decode(t, "", def); err != nil || !got.Equal(def) {
		t.Errorf("no key given: got %#v, %v; want def %#v", got, err, def)
	}
	// Each key alone moves only its own field.
	for _, tc := range []struct {
		line string
		set  func(*Cluster)
	}{
		{"nodes=7", func(c *Cluster) { c.Nodes = 7 }},
		{"ppn=5", func(c *Cluster) { c.PPN = 5 }},
		{"hcas=4", func(c *Cluster) { c.HCAs = 4 }},
		{"sockets=0", func(c *Cluster) { c.Sockets = 0 }},
		{"layout=block", func(c *Cluster) { c.Layout = Block }},
		{"nodehcas=3", func(c *Cluster) { c.NodeHCAs = []int{3} }},
		{"railbw=2/0.25", func(c *Cluster) { c.RailBW = []float64{2, 0.25} }},
	} {
		want := def
		tc.set(&want)
		if got, err := decode(t, tc.line, def); err != nil || !got.Equal(want) {
			t.Errorf("%s: got %#v, %v; want %#v", tc.line, got, err, want)
		}
	}

	for _, tc := range []struct{ line, want string }{
		{"nodes=x", `bad nodes value "x"`},
		{"layout=diagonal", `unknown layout "diagonal"`},
		{"nodehcas=1//2", `parsing "": invalid syntax`},
		{"railbw=1/y", `parsing "y": invalid syntax`},
	} {
		if _, err := decode(t, tc.line, def); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.line, err, tc.want)
		}
	}
}
