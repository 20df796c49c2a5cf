package compose_test

import (
	"testing"

	"mha/internal/compose"
)

// FuzzParseHierarchy checks that the hierarchy parser never panics and
// that accepted specs round-trip: String(Parse(x)) reparses to the
// same machine.
func FuzzParseHierarchy(f *testing.F) {
	f.Add("world nodes=4 ppn=8 hcas=2 layout=block")
	f.Add("world nodes=2 ppn=4 hcas=4 layout=cyclic sockets=2")
	f.Add("world nodes=1 ppn=1")
	f.Add("world nodes=0 ppn=-1 hcas=9999999")
	f.Add("world nodes=2 ppn=2 nodes=2")
	f.Add("worldnodes=2")
	f.Add("world nodes=3037000499 ppn=3037000499")
	f.Fuzz(func(t *testing.T, spec string) {
		h, err := compose.ParseHierarchy(spec)
		if err != nil {
			return
		}
		again, err := compose.ParseHierarchy(h.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", h.String(), spec, err)
		}
		if !again.Topo.Equal(h.Topo) {
			t.Fatalf("round trip drifted: %+v vs %+v (input %q)", again.Topo, h.Topo, spec)
		}
	})
}

// FuzzParseComposition checks that the composition parser never panics
// and that accepted pipelines round-trip through their canonical
// rendering.
func FuzzParseComposition(f *testing.F) {
	for _, coll := range compose.Collectives() {
		f.Add(compose.Flat(coll).String())
	}
	f.Add(compose.Hierarchical(compose.Allgather).String())
	f.Add("compose x coll=reduce-scatter\nred scope=node\n# c\nfence\nmc scope=node alg=pull")
	f.Add("compose x coll=allgather\nmc offload=auto striped=1")
	f.Add("compose x coll=allgather\nmc offload=-7")
	f.Add("fence\ncompose late coll=bcast")
	f.Fuzz(func(t *testing.T, text string) {
		c, err := compose.ParseComposition(text)
		if err != nil {
			return
		}
		canon := c.String()
		again, err := compose.ParseComposition(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, canon)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canon, again.String())
		}
	})
}
