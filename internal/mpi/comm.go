package mpi

import (
	"fmt"
	"slices"

	"mha/internal/sim"
)

// A Comm is an ordered group of world ranks with its own rank numbering,
// message-matching space, and barrier. Comms must be identical across all
// participating ranks; the pre-built World/node/leader comms and comms
// created before Run always are.
type Comm struct {
	w     *World
	id    int
	owner string // attribution label for audits ("" = unowned)
	ranks []int  // comm rank -> world rank
	// World rank -> comm rank: lo + i*stride is comm rank i if the ranks are
	// that progression (world, node and leader comms are), else by index.
	lo, stride int
	index      map[int]int
	barCounter *sim.Counter
}

// newComm registers a communicator over ranks, which it keeps.
func (w *World) newComm(ranks []int) *Comm {
	c := &Comm{w: w, ranks: ranks, stride: 1}
	if len(ranks) > 0 {
		c.lo = ranks[0]
	}
	if len(ranks) > 1 {
		c.stride = ranks[1] - ranks[0]
	}
	for i, r := range ranks {
		if r < 0 || r >= w.topo.Size() {
			panic(fmt.Sprintf("mpi: comm rank %d out of range", r))
		}
		if c.index == nil && (c.stride < 1 || r != c.lo+i*c.stride) {
			c.index = make(map[int]int, len(ranks))
			for j, q := range ranks[:i] {
				c.index[q] = j
			}
		}
		if c.index != nil {
			if _, dup := c.index[r]; dup {
				panic(fmt.Sprintf("mpi: duplicate rank %d in comm", r))
			}
			c.index[r] = i
		}
	}
	c.id = len(w.comms)
	c.barCounter = w.eng.NewCounter(barrierNames.name(c.id))
	w.comms = append(w.comms, c)
	return c
}

// rankOf returns world rank r's comm rank, or -1 if r is not a member.
func (c *Comm) rankOf(r int) int {
	if c.index != nil {
		if i, ok := c.index[r]; ok {
			return i
		}
		return -1
	}
	if d := r - c.lo; d >= 0 && d%c.stride == 0 && d/c.stride < len(c.ranks) {
		return d / c.stride
	}
	return -1
}

// World returns the world communicator (all ranks).
func (w *World) CommWorld() *Comm { return w.world }

// NodeComm returns the communicator of the ranks on one node.
func (w *World) NodeComm(nodeID int) *Comm { return w.nodeComms[nodeID] }

// LeaderComm returns the communicator of all node leaders, in node order.
func (w *World) LeaderComm() *Comm { return w.leaders }

// NewComm creates a custom communicator over the given world ranks (in the
// given order). Call it before Run, or make sure every rank that uses the
// comm observes the same creation order.
func (w *World) NewComm(ranks []int) *Comm { return w.newComm(slices.Clone(ranks)) }

// CommNamed returns the communicator registered under key, creating it
// from ranks() on first use. It makes runtime communicator creation safe:
// every rank asking for the same key gets the same Comm object no matter
// who asks first.
func (w *World) CommNamed(key string, ranks func() []int) *Comm {
	if c, ok := w.named[key]; ok {
		return c
	}
	c := w.newComm(slices.Clone(ranks()))
	if w.named == nil {
		w.named = map[string]*Comm{}
	}
	w.named[key] = c
	return c
}

// SetOwner labels the communicator with the job (or other party) its
// traffic belongs to. The label propagates to teardown audits: a leaked
// send or a still-busy rail is attributed to the owning job instead of
// being reported anonymously — essential once several jobs share one
// world. Setting it again re-labels; "" removes the label.
func (c *Comm) SetOwner(label string) { c.owner = label }

// Owner returns the label set with SetOwner ("" = unowned).
func (c *Comm) Owner() string { return c.owner }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns p's rank within c, or -1 if p is not a member.
func (c *Comm) Rank(p *Proc) int { return c.rankOf(p.rs.rank) }

// Contains reports whether world rank r belongs to the communicator.
func (c *Comm) Contains(worldRank int) bool { return c.rankOf(worldRank) >= 0 }

// WorldRank maps a comm rank to its world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: comm rank %d out of range [0,%d)", commRank, len(c.ranks)))
	}
	return c.ranks[commRank]
}

// Ranks returns a copy of the comm-rank -> world-rank mapping.
func (c *Comm) Ranks() []int { return append([]int(nil), c.ranks...) }

// Epoch returns a fresh collective epoch for p on this communicator.
// Collectives call it once per invocation and embed the epoch in their
// message tags, so back-to-back collectives on one comm can never match
// each other's messages. All ranks invoke collectives in the same order,
// so they agree on the epoch.
func (c *Comm) Epoch(p *Proc) int { return bump(&p.rs.epochs, c.id) }

// bump returns a rank's counter for comm id and increments it; a rank's
// counters cover the comms it has used, up to the highest id.
func bump(byComm *[]int, id int) int {
	for len(*byComm) <= id {
		*byComm = append(*byComm, 0)
	}
	(*byComm)[id]++
	return (*byComm)[id] - 1
}

// Barrier blocks until every rank of the communicator has entered the same
// barrier generation. It is a synchronization fence in virtual time with no
// modeled network cost; benchmarks use it to align ranks before timing.
func (c *Comm) Barrier(p *Proc) {
	if c.Rank(p) < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in comm %d", p.rs.rank, c.id))
	}
	gen := bump(&p.rs.barGen, c.id)
	c.barCounter.Add(1)
	c.barCounter.WaitGE(p.sp, int64(gen+1)*int64(len(c.ranks)))
}
