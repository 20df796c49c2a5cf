package verify

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// initRows is the registry as package initialization leaves it, taken
// before any test Registers a planted variant.
var initRows []Algorithm

func init() { initRows = append([]Algorithm(nil), registry...) }

// TestRegistryPinned pins the registered variants and the scenario pool
// they generate: (a) every row's name, collective and contract flags,
// and (b) the 400 specs of the seed-1 campaign the benchmark's
// verify-payload workload draws. A refactor of how rows are registered
// must leave both digests alone; a changed digest means a variant was
// added, dropped or re-flagged, or the pool moved.
func TestRegistryPinned(t *testing.T) {
	rows := append([]Algorithm(nil), initRows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	h := sha256.New()
	for _, a := range rows {
		fmt.Fprintf(h, "%s|%v|%v|%v|%v\n", a.Name, a.Coll, a.BlockOnly, a.SingleNode, a.EvenPPN)
	}
	if got, want := fmt.Sprintf("%d %x", len(rows), h.Sum(nil)),
		"36 3e2e97c4ccf71b501d0ffc6967b975f5dd4e36fedf8a9c73d396547a250579eb"; got != want {
		t.Errorf("registry rows moved: %s, recorded %s", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	h = sha256.New()
	for i := 0; i < 400; i++ {
		fmt.Fprintln(h, Generate(rng, rows, 48).Spec())
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "6001f37fbeeb19accee03253c6db39f9ccd5f55792646dbb5ceb2e5d42bbc422"; got != want {
		t.Errorf("verify-payload pool moved: digest %s, recorded %s", got, want)
	}
}
