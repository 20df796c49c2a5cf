package mpi

import (
	"fmt"

	"mha/internal/sim"
	"mha/internal/trace"
)

// Shm is a node-local shared-memory region with virtual-time availability
// counters — the mechanism the paper's phase 3 uses to overlap inter-node
// transfers with intra-node distribution: the node leader copies each
// arriving chunk in and bumps a counter; non-leader ranks wait on the
// counter and copy the chunk out, all while the leader's next inter-node
// transfer is already in flight.
type Shm struct {
	node     *node
	w        *World
	name     string
	buf      Buf
	counters map[string]*sim.Counter
}

// ShmOpen returns the named shared region on this rank's node, creating it
// with the given size on first open. Every rank of the node that opens the
// same name gets the same region; sizes must agree.
func (p *Proc) ShmOpen(name string, size int) *Shm {
	if size < 0 {
		panic("mpi: negative shm size")
	}
	w := p.w
	nd := &w.nodes[p.rs.node]
	if s, ok := nd.shms[name]; ok {
		if s.buf.Len() != size {
			panic(fmt.Sprintf("mpi: shm %q reopened with size %d, was %d", name, size, s.buf.Len()))
		}
		return s
	}
	s := &Shm{
		node:     nd,
		w:        w,
		name:     name,
		buf:      Make(size, w.phantom),
		counters: map[string]*sim.Counter{},
	}
	if nd.shms == nil {
		nd.shms = map[string]*Shm{}
	}
	nd.shms[name] = s
	return s
}

// Size returns the region's size in bytes.
func (s *Shm) Size() int { return s.buf.Len() }

// Region returns a Buf view of [off, off+n) of the region's backing
// store, sharing storage with it. Leaders use it to send straight out of
// shared memory without an intermediate copy.
func (s *Shm) Region(off, n int) Buf { return s.buf.Slice(off, n) }

// Counter returns the named availability counter of this region, creating
// it at zero on first use.
func (s *Shm) Counter(name string) *sim.Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := s.w.eng.NewCounter(fmt.Sprintf("node%d.shm.%s.%s", s.node.id, s.name, name))
	s.counters[name] = c
	return c
}

// WaitCounter blocks p until the named counter reaches at least v.
func (s *Shm) WaitCounter(p *Proc, name string, v int64) {
	start := p.Now()
	s.Counter(name).WaitGE(p.sp, v)
	if p.w.tracer != nil { // the span name is built only for a recorder
		p.trace(trace.CatWait, "shm-counter:"+name, start, p.Now(), -1, 0)
	}
}

// CopyIn copies src into the region at off, charging the copying rank's CPU
// the congested memcpy cost (T_L with the cg factor). It blocks until the
// copy completes.
func (s *Shm) CopyIn(p *Proc, off int, src Buf) {
	s.checkNode(p)
	n := src.Len()
	s.buf.Slice(off, n).CopyFrom(src)
	start, end := s.chargeCopy(p, n)
	p.trace(trace.CatCopyIn, "shm-copyin", start, end, -1, n)
}

// CopyOut copies n bytes at off out of the region into dst, charging the
// congested memcpy cost. It blocks until the copy completes.
func (s *Shm) CopyOut(p *Proc, off int, dst Buf) {
	s.checkNode(p)
	n := dst.Len()
	dst.CopyFrom(s.buf.Slice(off, n))
	start, end := s.chargeCopy(p, n)
	p.trace(trace.CatCopyOut, "shm-copyout", start, end, -1, n)
}

// chargeCopy occupies the rank's CPU for a congested memcpy of n bytes and
// blocks until done, returning the occupation interval.
func (s *Shm) chargeCopy(p *Proc, n int) (start, end sim.Time) {
	conc := s.node.mem.Inc()
	d := s.w.perturb(s.w.prm.CopyTime(n, conc))
	start, end = p.rs.cpu.Acquire(d)
	s.node.mem.DecAt(end)
	p.sp.WaitUntil(end)
	return start, end
}

func (s *Shm) checkNode(p *Proc) {
	if p.rs.node != s.node.id {
		panic(fmt.Sprintf("mpi: rank %d (node %d) touching shm of node %d",
			p.rs.rank, p.rs.node, s.node.id))
	}
}
