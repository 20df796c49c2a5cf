package verify

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/topology"
)

// emptyStore drops every kept array, so a test sees only the arrays its
// own Checks give back.
func emptyStore() {
	store.Lock()
	defer store.Unlock()
	store.free, store.held = nil, 0
}

// storeState is what the store holds: its byte count, which must equal
// the sum of its arrays' lengths, and never exceed storeCap.
func storeState(t *testing.T) (held, arrays int) {
	t.Helper()
	store.Lock()
	defer store.Unlock()
	sum := 0
	for _, a := range store.free {
		sum += len(a)
	}
	if sum != store.held || store.held > storeCap {
		t.Fatalf("store holds %d bytes in %d arrays but counts %d (cap %d)", sum, len(store.free), store.held, storeCap)
	}
	return store.held, len(store.free)
}

// TestStoreNeverPassesStaleBytes: a Check's first run takes arrays the
// previous Check left full of correct bytes, and must still see a
// variant that writes no receive block fail on every block. The scenario
// has 2 ranks and 2 blocks of 16 KiB each, so every receive array is a
// store array and all four blocks fit under maxOracleReports.
func TestStoreNeverPassesStaleBytes(t *testing.T) {
	emptyStore()
	const m = 16 << 10
	sc := Scenario{Alg: "ring", Cluster: topology.New(1, 2, 1), Msg: m, Seed: 1}
	if vs := Check(sc); len(vs) > 0 {
		t.Fatalf("ring: %v", vs)
	}
	if held, n := storeState(t); held != 2*2*m || n != 2 {
		t.Fatalf("after the ring the store holds %d bytes in %d arrays, want its 2 receive arrays", held, n)
	}
	plant(t, Algorithm{Name: "broken-planted", Run: func(*mpi.Proc, *mpi.World, mpi.Buf, mpi.Buf) {}})
	sc.Alg = "broken-planted"
	var got []string
	for _, v := range Check(sc) {
		got = append(got, v.String())
	}
	want := []string{
		"oracle: rank 0: block 0 byte 0 = 0x00, want 0x03",
		"oracle: rank 0: block 1 byte 0 = 0x00, want 0x86",
		"oracle: rank 1: block 0 byte 0 = 0x00, want 0x03",
		"oracle: rank 1: block 1 byte 0 = 0x00, want 0x86",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations:\n got %q\nwant %q", got, want)
	}
	if held, n := storeState(t); held != 2*2*m || n != 2 {
		t.Errorf("the planted Check left %d bytes in %d arrays, want the same 2 arrays back", held, n)
	}
}

// TestStoreHandsOutExactBuffers: a request takes the shortest kept array
// that holds it, which may be longer, yet every buffer a variant gets has
// no capacity past its length: a variant that appends to one, or slices
// past its end, cannot reach bytes outside it.
func TestStoreHandsOutExactBuffers(t *testing.T) {
	emptyStore()
	plant(t, Algorithm{Name: "broken-planted", Run: func(p *mpi.Proc, _ *mpi.World, send, recv mpi.Buf) {
		for _, b := range []mpi.Buf{send, recv} {
			if cap(b.Data()) != b.Len() {
				panic(fmt.Sprintf("a buffer of %d bytes has capacity %d", b.Len(), cap(b.Data())))
			}
		}
		specFill(compose.Allgather, p, recv, send.Len())
	}})
	for _, m := range []int{64 << 10, 48 << 10, 40 << 10} {
		sc := Scenario{Alg: "broken-planted", Cluster: topology.New(1, 2, 1), Msg: m, Seed: 1}
		if vs := Check(sc); len(vs) > 0 {
			t.Errorf("msg=%d: %v", m, vs)
		}
		// Every Check after the first is served entirely from the first
		// one's arrays (2 ranks x 64 KiB send and 128 KiB receive).
		if held, n := storeState(t); held != 2*(64+128)<<10 || n != 4 {
			t.Errorf("msg=%d: the store holds %d bytes in %d arrays, want the first Check's 4", m, held, n)
		}
	}
}

// TestStoreCapped: a scenario whose rank arrays add up to more than the
// cap checks clean; the store keeps what fits and drops the rest.
func TestStoreCapped(t *testing.T) {
	emptyStore()
	// 12 ranks, each with a 512 KiB send and a 6 MiB receive array: 78 MiB.
	sc := Scenario{Alg: "ring", Cluster: topology.New(3, 4, 1), Msg: 512 << 10, Seed: 1}
	if vs := Check(sc); len(vs) > 0 {
		t.Fatalf("%v", vs)
	}
	if held, _ := storeState(t); held <= storeCap-(6<<20) {
		t.Errorf("the store kept %d bytes of 78 MiB; it has room for more under its cap of %d", held, storeCap)
	}
}

// TestStoreConcurrentChecks: Checks on several goroutines share the store
// (run it under -race). Each scenario has arrays above storeMin, so every
// Check takes and gives back under the lock.
func TestStoreConcurrentChecks(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([][]Violation, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				sc := Scenario{Alg: "ring", Cluster: topology.New(2, 2, 1), Msg: (8 + 4*g + i) << 10, Seed: int64(1 + i)}
				errs[g] = append(errs[g], Check(sc)...)
			}
		}()
	}
	wg.Wait()
	for g, vs := range errs {
		if len(vs) > 0 {
			t.Errorf("goroutine %d: %v", g, vs)
		}
	}
	storeState(t)
}
