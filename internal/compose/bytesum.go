package compose

import (
	"encoding/binary"
	"fmt"

	"mha/internal/mpi"
	"mha/internal/netmodel"
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

// Cost implements collectives.Reducer at netmodel.BWReduce, the
// analyzer's fold throughput, so modeled and executed folds agree.
func (ByteSum) Cost(n int) sim.Duration {
	return sim.FromSeconds(float64(n) / netmodel.BWReduce)
}

// Fold is the sched.ExecuteGoal reducer for derived schedules: charge
// the fold's compute time, then sum the bytes in place. It keeps no
// reference to src, as ExecuteGoal requires.
func Fold(p *mpi.Proc, dst, src mpi.Buf) {
	sched.ChargeRed(p, dst, src)
	ByteSum{}.Reduce(dst, src)
}

// PatternByte is byte i of rank r's contribution under the payload
// oracle: a non-repeating pattern, so block swaps, off-by-ones and stale
// bytes all show up as wrong bytes. salt tells apart runs that share one
// world: a cluster job passes its ID, so one job's bytes in another's
// buffer are wrong too, and the verify campaign passes 0. The step per
// byte is odd and the same for every rank and salt, so the pattern has
// period 256 and every row is one sequence entered at its own offset.
func PatternByte(salt, r, i int) byte { return byte(salt*29 + r*131 + i*7 + 3) }

// SumByte is the ByteSum fold of byte i of all n ranks' contributions,
// the reduction oracle. Wrapping byte addition is exactly commutative and
// associative, so the value does not depend on fold order.
func SumByte(salt, n, i int) byte {
	var s byte
	for r := 0; r < n; r++ {
		s += PatternByte(salt, r, i)
	}
	return s
}

// ExpectByte is the payload oracle: byte i of receive block blk (m bytes
// each) at rank me of a collective over n ranks, when every rank's send
// buffer holds its PatternByte row over Geometry's send length.
// Allgather-family blocks are contributions verbatim, reduce-family slots
// are SumByte folds, alltoall chunk (s -> me) is bytes [me*m, me*m+m) of
// s's row, and a gather's non-root receive buffer stays untouched (zero).
func ExpectByte(coll Collective, salt, n, m, me, blk, i int) byte {
	switch coll {
	case Allgather:
		return PatternByte(salt, blk, i)
	case ReduceScatter:
		return SumByte(salt, n, me*m+i)
	case Alltoall:
		return PatternByte(salt, blk, me*m+i)
	case Gather:
		if me != 0 {
			return 0
		}
		return PatternByte(salt, blk, i)
	case Scatter:
		return PatternByte(salt, 0, me*m+i)
	case Allreduce:
		return SumByte(salt, n, blk*m+i)
	case Bcast:
		return PatternByte(salt, 0, i)
	default:
		panic("compose: no oracle for collective " + coll.String())
	}
}
