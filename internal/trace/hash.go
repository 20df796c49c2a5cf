package trace

// Hash returns an order-independent-of-insertion fingerprint of the
// recorded timeline: FNV-1a over every field of every event in the
// canonical Events() order. Two runs of a deterministic simulation with
// identical inputs must produce identical hashes; the verification
// harness uses this to detect nondeterminism. Hash on a nil or empty
// recorder returns the FNV offset basis.
func (r *Recorder) Hash() uint64 {
	h := uint64(fnvOffset)
	if r == nil {
		return h
	}
	for _, k := range r.order() {
		ev := &r.events[k]
		h = fnvNum(h, int64(ev.Rank))
		h = fnvStr(h, string(ev.Cat))
		h = fnvStr(h, ev.Name)
		h = fnvNum(h, int64(ev.Start))
		h = fnvNum(h, int64(ev.End))
		h = fnvNum(h, int64(ev.Peer))
		h = fnvNum(h, int64(ev.Bytes))
	}
	return h
}

// 64-bit FNV-1a (hash/fnv's New64a), written out: hashing a field is a loop
// over its bytes, not a Write through an interface.
const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnvNum hashes v's eight bytes, little-endian.
func fnvNum(h uint64, v int64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ uint64(byte(v>>i))) * fnvPrime
	}
	return h
}

// fnvStr hashes s's bytes and a terminating NUL.
func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h * fnvPrime
}
