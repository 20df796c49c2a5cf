package collectives

import (
	"encoding/binary"
	"fmt"
	"math"

	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sim"
)

// A Reducer combines message payloads element-wise and prices the
// combination, so reductions cost virtual time even in phantom mode.
type Reducer interface {
	// Reduce folds src into dst (dst = dst op src). Phantom buffers fold
	// nothing but still type-check sizes.
	Reduce(dst, src mpi.Buf)
	// Cost returns the compute time of reducing n bytes.
	Cost(n int) sim.Duration
}

// Float64Sum sums buffers of little-endian float64s at netmodel.BWReduce,
// the reduction used by the Allreduce experiments (gradient averaging in
// the deep-learning application reduces float gradients the same way).
type Float64Sum struct{}

// SumF64 returns the float64-sum reducer.
func SumF64() Float64Sum { return Float64Sum{} }

// Reduce implements Reducer.
func (f Float64Sum) Reduce(dst, src mpi.Buf) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("collectives: reduce size mismatch %d vs %d", dst.Len(), src.Len()))
	}
	if dst.IsPhantom() || src.IsPhantom() {
		return
	}
	if dst.Len()%8 != 0 {
		panic("collectives: float64 reduce needs a multiple of 8 bytes")
	}
	d, s := dst.Data(), src.Data()
	for i := 0; i+8 <= len(d); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(d[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(s[i:]))
		binary.LittleEndian.PutUint64(d[i:], math.Float64bits(a+b))
	}
}

// Cost implements Reducer.
func (Float64Sum) Cost(n int) sim.Duration {
	return sim.FromSeconds(float64(n) / netmodel.BWReduce)
}

// Float64Extreme keeps the element-wise maximum (or minimum) of float64
// buffers — the MPI_MAX/MPI_MIN analogue.
type Float64Extreme struct {
	// Min selects minimum instead of maximum.
	Min bool
}

// MaxF64 returns the element-wise float64 maximum reducer.
func MaxF64() Float64Extreme { return Float64Extreme{} }

// MinF64 returns the element-wise float64 minimum reducer.
func MinF64() Float64Extreme { return Float64Extreme{Min: true} }

// Reduce implements Reducer.
func (f Float64Extreme) Reduce(dst, src mpi.Buf) {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("collectives: reduce size mismatch %d vs %d", dst.Len(), src.Len()))
	}
	if dst.IsPhantom() || src.IsPhantom() {
		return
	}
	if dst.Len()%8 != 0 {
		panic("collectives: float64 reduce needs a multiple of 8 bytes")
	}
	d, s := dst.Data(), src.Data()
	for i := 0; i+8 <= len(d); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(d[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(s[i:]))
		keep := math.Max(a, b)
		if f.Min {
			keep = math.Min(a, b)
		}
		binary.LittleEndian.PutUint64(d[i:], math.Float64bits(keep))
	}
}

// Cost implements Reducer.
func (Float64Extreme) Cost(n int) sim.Duration {
	return sim.FromSeconds(float64(n) / netmodel.BWReduce)
}

// chunkOf returns the balanced chunk boundaries used by ring allreduce:
// chunk i of a buffer of n bytes split into parts 8-byte-aligned pieces.
func chunkOf(n, parts, i int) (off, ln int) {
	elems := n / 8
	base := elems / parts
	rem := elems % parts
	start := i*base + min(i, rem)
	count := base
	if i < rem {
		count++
	}
	return start * 8, count * 8
}

// ReduceScatterRing performs the reduce-scatter phase of the
// Patarasuk-Yuan ring allreduce on buf (which must be a multiple of 8
// bytes): after it returns, rank r holds the fully reduced chunk r of buf,
// and chunkOf reports the chunk boundaries. Chunk j circulates the ring
// starting at rank j+1, accumulating every rank's contribution, and lands
// fully reduced back at rank j.
func ReduceScatterRing(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, red Reducer) {
	if buf.Len()%8 != 0 {
		panic("collectives: ring allreduce needs a multiple of 8 bytes")
	}
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.Rank(p)
	epoch := c.Epoch(p)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := (me - s - 1 + n) % n
		recvIdx := (me - s - 2 + 2*n) % n
		so, sl := chunkOf(buf.Len(), n, sendIdx)
		ro, rl := chunkOf(buf.Len(), n, recvIdx)
		tag := mpi.Tag(epoch, mpi.PhaseRS, s)
		rreq := p.Irecv(c, left, tag)
		sreq := p.Isend(c, right, tag, buf.Slice(so, sl))
		got := p.Wait(rreq)
		dst := buf.Slice(ro, rl)
		red.Reduce(dst, got)
		p.Compute(red.Cost(rl))
		p.Wait(sreq)
	}
}

// RingAllreduce is the bandwidth-optimal allreduce of Patarasuk and Yuan:
// a ring reduce-scatter followed by a ring allgather of the reduced
// chunks. It operates in place on buf.
func RingAllreduce(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, red Reducer) {
	ReduceScatterRing(p, c, buf, red)
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.Rank(p)
	epoch := c.Epoch(p)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := (me - s + n) % n
		recvIdx := (me - s - 1 + n) % n
		so, sl := chunkOf(buf.Len(), n, sendIdx)
		ro, rl := chunkOf(buf.Len(), n, recvIdx)
		tag := mpi.Tag(epoch, mpi.PhaseARAG, s)
		rreq := p.Irecv(c, left, tag)
		sreq := p.Isend(c, right, tag, buf.Slice(so, sl))
		p.WaitInto(rreq, buf.Slice(ro, rl), nil)
		p.Wait(sreq)
	}
}

// RDAllreduce is the recursive-doubling allreduce: log2(N) full-buffer
// exchanges, each followed by a local reduction — the latency-optimal
// choice for small messages. Non-power-of-two communicators fold the
// excess ranks onto the power-of-two core first and fan the result back
// out afterwards.
func RDAllreduce(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, red Reducer) {
	n := c.Size()
	if n == 1 {
		return
	}
	me := c.Rank(p)
	epoch := c.Epoch(p)
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	extra := n - pow2

	// Fold: ranks >= pow2 contribute to their partner and go idle.
	if me >= pow2 {
		partner := me - pow2
		p.Send(c, partner, mpi.Tag(epoch, mpi.PhaseRD, 1<<12), buf)
		p.WaitInto(p.Irecv(c, partner, mpi.Tag(epoch, mpi.PhaseRD, 1<<13)), buf, nil)
		return
	}
	if me < extra {
		got := p.Recv(c, me+pow2, mpi.Tag(epoch, mpi.PhaseRD, 1<<12))
		red.Reduce(buf, got)
		p.Compute(red.Cost(buf.Len()))
	}

	for dist := 1; dist < pow2; dist *= 2 {
		peer := me ^ dist
		tag := mpi.Tag(epoch, mpi.PhaseRD, dist)
		got := p.SendRecv(c, peer, tag, buf, peer, tag)
		red.Reduce(buf, got)
		p.Compute(red.Cost(buf.Len()))
	}

	if me < extra {
		p.Send(c, me+pow2, mpi.Tag(epoch, mpi.PhaseRD, 1<<13), buf)
	}
}

// AllreduceViaAllgather composes a ring reduce-scatter with an arbitrary
// allgather over the reduced chunks — the structure the paper exploits:
// plugging the MHA allgather into phase two of ring allreduce. The buffer
// length must be a multiple of 8*N bytes so chunks are uniform (callers
// pad; the harness always does).
func AllreduceViaAllgather(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, red Reducer,
	allgather func(p *mpi.Proc, send, recv mpi.Buf)) {
	n := c.Size()
	if buf.Len()%(8*n) != 0 {
		panic(fmt.Sprintf("collectives: AllreduceViaAllgather needs len %% %d == 0, got %d", 8*n, buf.Len()))
	}
	ReduceScatterRing(p, c, buf, red)
	if n == 1 {
		return
	}
	me := c.Rank(p)
	m := buf.Len() / n
	own := buf.Slice(me*m, m).Clone()
	allgather(p, own, buf)
}
