package compose

import (
	"encoding/binary"
	"fmt"

	"mha/internal/mpi"
	"mha/internal/sched"
	"mha/internal/sim"
)

// ByteSum is the reduction the derived collectives verify with: a
// byte-wise wrapping add. Unlike float addition it is exactly
// commutative and associative, so the oracle's expected bytes do not
// depend on fold order; unlike XOR, folding the same contribution twice
// does not cancel out, so a double delivery corrupts bytes visibly.
// It implements collectives.Reducer, which lets the differential tests
// drive the hand-written allreduces with the very same arithmetic.
type ByteSum struct{}

// Reduce implements collectives.Reducer (dst[i] += src[i], mod 256).
// It adds eight bytes per step, lane by lane within one 64-bit word: the
// low seven bits of each lane add without reaching the next lane, and the
// top bit is their carry XOR both top bits. A byte loop takes the tail.
func (ByteSum) Reduce(dst, src mpi.Buf) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("compose: reduce size mismatch %d vs %d", dst.Len(), src.Len()))
	}
	if dst.IsPhantom() || src.IsPhantom() {
		return
	}
	const hi = 0x8080808080808080
	d, s := dst.Data(), src.Data()
	for len(d) >= 8 && len(s) >= 8 {
		a, b := binary.LittleEndian.Uint64(d), binary.LittleEndian.Uint64(s)
		binary.LittleEndian.PutUint64(d, (a&^hi)+(b&^hi)^(a^b)&hi)
		d, s = d[8:], s[8:]
	}
	for i := range d {
		d[i] += s[i]
	}
}

// Cost implements collectives.Reducer at the analyzer's fold
// throughput, so modeled and executed reduction times agree.
func (ByteSum) Cost(n int) sim.Duration {
	return sim.FromSeconds(float64(n) / 8e9)
}

// Fold is the sched.ExecuteGoal reducer for derived schedules: charge
// the fold's compute time, then sum the bytes in place. It keeps no
// reference to src, as ExecuteGoal requires.
func Fold(p *mpi.Proc, dst, src mpi.Buf) {
	sched.ChargeRed(p, dst, src)
	ByteSum{}.Reduce(dst, src)
}
