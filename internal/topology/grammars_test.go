package topology_test

import (
	"slices"
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/explore"
	"mha/internal/sched"
	"mha/internal/verify"
)

// TestDecodeAgreesAcrossGrammars: the same shape keys decode to the
// same cluster through every text grammar that takes them. The sched
// header takes no sockets= and explore's line only nodes, ppn and hcas,
// so each is held to what it takes.
func TestDecodeAgreesAcrossGrammars(t *testing.T) {
	for _, shape := range []string{
		"nodes=4 ppn=2 hcas=2 layout=cyclic sockets=2",
		"nodes=2 ppn=4 layout=block",
		"nodes=2 ppn=3 hcas=3 sockets=3",
		"nodes=1 ppn=8 hcas=4 layout=cyclic",
	} {
		sc, err := verify.ParseSpec("alg=ring " + shape)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		want := sc.Cluster

		h, err := compose.ParseHierarchy("world " + shape)
		if err != nil {
			t.Fatalf("compose: %v", err)
		}
		if !h.Topo.Equal(want) {
			t.Errorf("%s: compose decodes %#v, verify %#v", shape, h.Topo, want)
		}

		s, err := sched.Parse("schedule x msg=1 " + only(shape, "nodes", "ppn", "hcas", "layout"))
		if err != nil {
			t.Fatalf("sched: %v", err)
		}
		flat := want
		flat.Sockets = 0
		if !s.Topo.Equal(flat) {
			t.Errorf("%s: sched header decodes %#v, verify %#v", shape, s.Topo, flat)
		}

		es, err := explore.ParseSpec("alg=ring " + only(shape, "nodes", "ppn", "hcas"))
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		if es.Nodes != want.Nodes || es.PPN != want.PPN || es.HCAs != want.HCAs {
			t.Errorf("%s: explore decodes %dx%dx%d, verify %v", shape, es.Nodes, es.PPN, es.HCAs, want)
		}
	}
}

// only keeps the fields of line whose key is one of keys.
func only(line string, keys ...string) string {
	var out []string
	for _, f := range strings.Fields(line) {
		if k, _, _ := strings.Cut(f, "="); slices.Contains(keys, k) {
			out = append(out, f)
		}
	}
	return strings.Join(out, " ")
}
