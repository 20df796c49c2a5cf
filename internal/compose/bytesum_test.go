package compose_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"mha/internal/compose"
	"mha/internal/mpi"
)

// TestByteSumMatchesByteLoop: the word-wise fold writes exactly the bytes
// dst[i] += src[i] does, on every length around the word size, on one
// long odd length, and on sub-slices that start at every offset of a word
// — so unaligned words, the byte tail and every carry between lanes are
// all exercised.
func TestByteSumMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	check := func(name string, d, s []byte) {
		t.Helper()
		want := append([]byte(nil), d...)
		for i := range want {
			want[i] += s[i]
		}
		compose.ByteSum{}.Reduce(mpi.Bytes(d), mpi.Bytes(s))
		if !bytes.Equal(d, want) {
			t.Errorf("%s: word-wise fold differs from the byte loop", name)
		}
	}
	lengths := []int{4101}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		check("len "+strconv.Itoa(n), random(n), random(n))
	}
	// Every byte value against every other, through the carries.
	all := make([]byte, 256*256)
	other := make([]byte, len(all))
	for i := range all {
		all[i], other[i] = byte(i>>8), byte(i)
	}
	check("every pair", all, other)
	for off := 1; off <= 7; off++ {
		d, s := random(4101+off), random(4101+2*off)
		check("offset "+strconv.Itoa(off), d[off:], s[2*off:2*off+4101])
	}
}
