package verify

import (
	"cmp"
	"slices"
	"sync"
)

// storeCap bounds the bytes the store keeps between runs. The heaviest
// scenario of the verify-payload pool (400 scenarios, up to 48 ranks) has
// 37.7 MB of rank arrays and the 90th percentile 1.3 MB. Over a pass in
// the benchmark's order, 64 MiB serves 96 % of the requested bytes from
// the store (1 398 of 1 432 requests), 32 MiB 81 % and 96 MiB all.
const storeCap = 64 << 20

// storeMin is the shortest array the store keeps, the runtime's largest
// size class: a longer make is a span of its own, zeroed and, once the
// scavenger has returned its pages, faulted in again. Shorter arrays come
// from size-class spans the runtime reuses anyway; they carry 5 % of a
// pass's rank bytes, and an explorer replay's 8- and 32-byte buffers
// never enter the store.
const storeMin = 32 << 10

// store is the free list of rank send and receive arrays shared by every
// Check and RunOnce of the process: a run takes its arrays on first use
// and gives them back when it ends, so the next run writes pages that are
// already mapped instead of new ones. It is not a sync.Pool, which every
// collection empties. free is in ascending length (every array's cap is
// its len), and a request takes the shortest array that holds it, so a
// scenario's short send arrays leave its long receive arrays alone.
// Lengths are not rounded up to size classes: with that take, classes
// served no more of a pass's bytes and made every new array longer. A
// kept array holds whatever its last run left: rankBufs.fill rewrites it.
// Runs on several goroutines (explore's parallel placements, a caller's
// own workers) share it under the lock.
var store struct {
	sync.Mutex
	free [][]byte
	held int // bytes in free, at most storeCap
}

// takeArray returns an array of at least n bytes with arbitrary contents:
// the shortest kept one that is long enough, or a new one of n bytes.
func takeArray(n int) []byte {
	if n >= storeMin {
		store.Lock()
		i, _ := slices.BinarySearchFunc(store.free, n, byLen)
		if i < len(store.free) {
			a := store.free[i]
			store.free = slices.Delete(store.free, i, i+1)
			store.held -= len(a)
			store.Unlock()
			return a
		}
		store.Unlock()
	}
	return make([]byte, n)
}

// giveArrays gives the store the ranks' arrays, keeping each one of at
// least storeMin bytes that still fits under storeCap, and empties the
// ranks.
func giveArrays(ranks []rankBufs) {
	store.Lock()
	defer store.Unlock()
	for i := range ranks {
		for _, a := range [2][]byte{ranks[i].send, ranks[i].recv} {
			if len(a) >= storeMin && store.held+len(a) <= storeCap {
				at, _ := slices.BinarySearchFunc(store.free, len(a), byLen)
				store.free = slices.Insert(store.free, at, a)
				store.held += len(a)
			}
		}
		ranks[i] = rankBufs{}
	}
}

func byLen(a []byte, n int) int { return cmp.Compare(len(a), n) }
