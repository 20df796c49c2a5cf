package trace

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"mha/internal/sim"
)

// referenceEvents and referenceHash are Events and Hash as first written:
// a stable sort of a copy of the events, and hash/fnv through its Write
// method. The recorder must give the same order and the same hash, or every
// pinned trace hash in the tree moves.
func referenceEvents(r *Recorder) []Event {
	out := slices.Clone(r.events)
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	return out
}

func referenceHash(r *Recorder) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, ev := range referenceEvents(r) {
		num(int64(ev.Rank))
		h.Write([]byte(ev.Cat))
		h.Write([]byte{0})
		h.Write([]byte(ev.Name))
		h.Write([]byte{0})
		num(int64(ev.Start))
		num(int64(ev.End))
		num(int64(ev.Peer))
		num(int64(ev.Bytes))
	}
	return h.Sum64()
}

// TestHashMatchesReference: on random recorders whose events mostly tie on
// (Start, Rank) — six start times, four ranks, up to 120 events — Events
// gives the stable sort's order and Hash the reference's value.
func TestHashMatchesReference(t *testing.T) {
	cats := []Category{CatSend, CatRecv, CatHCA, CatWait, CatFault, ""}
	names := []string{"", "cma", "hca(x2)", "recv-wait", "shm-counter:chunk·3"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		r := New()
		for i, n := 0, rng.Intn(121); i < n; i++ {
			start := sim.Time(rng.Intn(6)) * 1000
			r.Add(Event{
				Rank: rng.Intn(4), Cat: cats[rng.Intn(len(cats))], Name: names[rng.Intn(len(names))],
				Start: start, End: start + sim.Time(rng.Intn(3000)),
				Peer: rng.Intn(5) - 1, Bytes: rng.Intn(1<<20) - 1<<10,
			})
		}
		if got, want := r.Events(), referenceEvents(r); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Events() order differs from the stable sort:\n got %v\nwant %v", trial, got, want)
		}
		if got, want := r.Hash(), referenceHash(r); got != want {
			t.Fatalf("trial %d (%d events): Hash() = %#x, reference %#x", trial, r.Len(), got, want)
		}
	}
	var nilRec *Recorder
	if got, want := nilRec.Hash(), referenceHash(New()); got != want {
		t.Errorf("nil recorder hashes to %#x, want the offset basis %#x", got, want)
	}
}
