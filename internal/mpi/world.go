// Package mpi is a miniature MPI runtime on top of the sim engine: ranks
// are simulated processes, point-to-point messages move real (or phantom)
// payloads, and transfer times come from the netmodel cost functions
// applied to contended hardware resources (HCA rails, node memory).
//
// It provides exactly the substrate the paper's designs need: blocking and
// nonblocking point-to-point with tag matching, transport selection (CMA,
// a specific HCA rail, striped multirail), communicators and sub-
// communicators (node-local and leader comms), and node-level shared-memory
// regions with virtual-time availability counters.
//
// Nothing in the package is synchronised: a World, with its communicators,
// shared-memory regions and PerWorld values, belongs to one goroutine at a
// time, as the sim engine it is bound to does — the one that builds it, then
// the one that calls Run, then whoever reads it once Run has returned.
package mpi

import (
	"fmt"
	"math/rand"

	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// Config describes a simulated MPI job.
type Config struct {
	// Topo is the cluster shape (required).
	Topo topology.Cluster
	// Params is the communication cost model; nil means netmodel.Thor().
	Params *netmodel.Params
	// Tracer, when non-nil, records every communication event.
	Tracer *trace.Recorder
	// Phantom makes shared-memory regions size-only. Point-to-point
	// payloads are phantom whenever the caller passes Phantom buffers,
	// independent of this flag.
	Phantom bool
	// Seed initializes the jitter RNG when Params.Jitter > 0; two worlds
	// with the same seed produce identical results.
	Seed int64
	// Faults, when non-nil, degrades the HCA rails over virtual time: down
	// windows, reduced-bandwidth spans, added latency, flapping. The
	// schedule both slows the rail resources and feeds the rail-health
	// registry that transport selection consults.
	Faults *faults.Schedule
	// FaultBlind keeps transport selection unaware of the fault schedule:
	// rails still degrade, but striping splits equally and pinned/round-
	// robin sends queue on dead rails. This is the naive baseline the
	// health-aware path is measured against.
	FaultBlind bool
	// Fabric, when non-nil, selects the structured inter-node network
	// (fat-tree or dragonfly) whose shared links cross-node traffic must
	// traverse. Nil is the flat non-blocking fabric, on which transfers
	// contend only at the endpoints' HCAs.
	Fabric *fabric.Spec
	// Shared, when non-nil, is where the world keeps its PerWorld values,
	// so that every world built on one table derives each of them once.
	// New refuses a table made for another topology.
	Shared *Shared
}

// Shared is a table of PerWorld values that outlives the worlds built on
// it. What PerWorld holds is a pure function of the world's topology and
// its arg — a schedule built, a plan lowered — so worlds of one topology
// may share it; the table is bound to that topology, and a world of any
// other never sees it. A caller that builds many worlds of one scenario
// (verify.Prepared) keeps one. Like a world, it belongs to one goroutine
// at a time, and it is never package state: what it holds dies with it.
type Shared struct {
	topo topology.Cluster
	vals map[perWorldKey]any
}

// NewShared returns an empty table for worlds of topology topo.
func NewShared(topo topology.Cluster) *Shared {
	return &Shared{topo: topo, vals: map[perWorldKey]any{}}
}

// World is one simulated MPI job. Create it with New, then call Run with
// the rank body.
type World struct {
	eng    *sim.Engine
	topo   topology.Cluster
	prm    *netmodel.Params
	tracer *trace.Recorder

	phantom    bool
	nodes      []node
	ranks      []rankState
	net        *fabric.Network // nil on a flat (non-blocking) fabric
	health     *RailHealth
	faultBlind bool

	// makespan is the latest virtual time a rank body returned at. A rank
	// writes it once, as its body returns; rank bodies are coroutines of
	// Run's goroutine, so the ranks' writes and the read after Run need no
	// ordering of their own.
	makespan sim.Time

	// spare holds the message records Wait has received and cleared, last in
	// first out; isend takes one before it allocates. A record that is never
	// received never gets here, so a world allocates as many records as it
	// has messages in flight at once, and the list dies with the world.
	spare []*message
	// payloads holds, by the same rule, the arrays of payloads WaitInto has
	// copied or folded out, oldest first and at most maxSparePayloads of
	// them; isend's snapshot takes one of exactly the size it needs before
	// it allocates. A payload Wait hands out never gets here. It stays nil
	// until the first one comes back.
	payloads [][]byte

	jitter *rand.Rand // nil when Params.Jitter == 0

	comms       []*Comm
	world       *Comm
	nodeComms   []*Comm
	leaders     *Comm
	socketComms [][]*Comm // [node][socket], only when Topo.Sockets > 1
	named       map[string]*Comm
	shared      map[perWorldKey]any
}

// perWorldKey names one PerWorld value: which wrapper (func values do
// not compare, so each PerWorld call allocates its identity) and its arg.
type perWorldKey struct {
	id  *byte
	arg int
}

// node holds the per-node hardware: HCA rails and the memory-concurrency
// gauge that drives the congestion factors, plus shared-memory regions
// (nil until the first ShmOpen).
type node struct {
	id   int
	hcas []hca
	mem  *sim.Gauge
	shms map[string]*Shm
}

// hca is one network adapter: independent transmit and receive engines
// (full-duplex, as on InfiniBand).
type hca struct {
	tx *sim.Resource
	rx *sim.Resource
}

// rankState is the engine-side state of one rank.
type rankState struct {
	rank, node, local int
	mbox              *sim.Mailbox
	cpu               *sim.Resource
	railRR            int   // round-robin cursor for small messages
	epochs            []int // collective epoch, by comm id
	barGen            []int // barrier generation, by comm id
}

// message is what travels between ranks.
type message struct {
	comm     int
	src, dst int // world ranks
	tag      int
	data     Buf
	sentAt   sim.Time
}

// New builds a world. The cluster shape must validate.
func New(cfg Config) *World {
	if err := cfg.Topo.Validate(); err != nil {
		panic(err)
	}
	prm := cfg.Params
	if prm == nil {
		prm = netmodel.Thor()
	}
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if sh := cfg.Shared; sh != nil && !sh.topo.Equal(cfg.Topo) {
		panic(fmt.Sprintf("mpi: a table shared by %v worlds given a %v world", sh.topo, cfg.Topo))
	}
	eng := sim.NewEngine()
	w := &World{
		eng:     eng,
		topo:    cfg.Topo,
		prm:     prm,
		tracer:  cfg.Tracer,
		phantom: cfg.Phantom,
	}
	if cfg.Shared != nil {
		w.shared = cfg.Shared.vals
	}
	if prm.Jitter > 0 {
		w.jitter = rand.New(rand.NewSource(cfg.Seed))
	}
	if cfg.Faults.Len() > 0 {
		if err := cfg.Faults.Check(cfg.Topo.Nodes, cfg.Topo.HCAs); err != nil {
			panic(fmt.Sprintf("mpi: %v", err))
		}
		w.health = &RailHealth{sched: cfg.Faults, hcas: cfg.Topo.HCAs}
	} else {
		w.health = &RailHealth{hcas: cfg.Topo.HCAs}
	}
	w.faultBlind = cfg.FaultBlind
	if fspec := cfg.Fabric; fspec != nil && fspec.Kind != fabric.Flat {
		nw, err := fabric.Build(eng, *fspec, cfg.Topo, prm)
		if err != nil {
			panic(fmt.Sprintf("mpi: %v", err))
		}
		w.net = nw
	}
	w.nodes = make([]node, cfg.Topo.Nodes)
	hcas := make([]hca, cfg.Topo.Nodes*cfg.Topo.HCAs) // HCAs is the most a node has
	for n := range w.nodes {
		k := cfg.Topo.HCAsOf(n)
		nd := &w.nodes[n]
		*nd = node{id: n, hcas: hcas[:k:k], mem: eng.NewGauge(memNames.name(n))}
		hcas = hcas[k:]
		for h := range nd.hcas {
			tx, rx := railNames(n, h)
			a := &nd.hcas[h]
			a.tx, a.rx = eng.NewResource(tx), eng.NewResource(rx)
			if w.health.Faulty() {
				rate := func(t sim.Time) (float64, sim.Time) {
					return cfg.Faults.RailState(n, h, t)
				}
				a.tx.SetRate(rate)
				a.rx.SetRate(rate)
			}
		}
	}
	w.ranks = make([]rankState, cfg.Topo.Size())
	for r := range w.ranks {
		w.ranks[r] = rankState{
			rank:  r,
			node:  cfg.Topo.NodeOf(r),
			local: cfg.Topo.LocalOf(r),
			mbox:  eng.NewMailbox(rankNames.name(r)),
			cpu:   eng.NewResource(cpuNames.name(r)),
		}
	}
	// Pre-build the standard communicators.
	all := make([]int, cfg.Topo.Size())
	for i := range all {
		all[i] = i
	}
	w.comms = make([]*Comm, 0, cfg.Topo.Nodes+2)
	w.world = w.newComm(all)
	w.nodeComms = make([]*Comm, cfg.Topo.Nodes)
	for n := range w.nodeComms {
		w.nodeComms[n] = w.newComm(cfg.Topo.NodeRanks(n))
	}
	w.leaders = w.newComm(cfg.Topo.Leaders())
	// Leaked-message attribution: when the teardown audit finds an
	// unclaimed mailbox item, render it in MPI terms — source, destination,
	// tag, and the owning communicator's job label if one was set.
	eng.SetItemDescriber(func(v interface{}) string {
		m, ok := v.(*message)
		if !ok {
			return fmt.Sprintf("%v", v)
		}
		label := ""
		if m.comm >= 0 && m.comm < len(w.comms) {
			if o := w.comms[m.comm].owner; o != "" {
				label = " owner=" + o
			}
		}
		return fmt.Sprintf("msg(src=%d dst=%d tag=%d bytes=%d sent=%v%s)",
			m.src, m.dst, m.tag, m.data.Len(), m.sentAt, label)
	})
	if s := cfg.Topo.NumaSockets(); s > 1 {
		w.socketComms = make([][]*Comm, cfg.Topo.Nodes)
		for n := 0; n < cfg.Topo.Nodes; n++ {
			w.socketComms[n] = make([]*Comm, s)
			for sock := 0; sock < s; sock++ {
				locals := cfg.Topo.SocketLocals(sock)
				ranks := make([]int, len(locals))
				for i, l := range locals {
					ranks[i] = cfg.Topo.RankOf(n, l)
				}
				w.socketComms[n][sock] = w.newComm(ranks)
			}
		}
	}
	return w
}

// routeOf returns the shared fabric links between two nodes (nil for
// same-node traffic or a flat fabric).
func (w *World) routeOf(srcNode, dstNode int) []*fabric.Link {
	if w.net == nil || srcNode == dstNode {
		return nil
	}
	return w.net.Route(srcNode, dstNode)
}

// SocketComm returns the communicator of one NUMA socket's ranks. It
// panics when the topology has no socket structure (Sockets <= 1).
func (w *World) SocketComm(nodeID, socket int) *Comm {
	if w.socketComms == nil {
		panic("mpi: SocketComm on a flat (non-NUMA) topology")
	}
	return w.socketComms[nodeID][socket]
}

// Topo returns the cluster shape.
func (w *World) Topo() topology.Cluster { return w.topo }

// Params returns the communication cost model in use.
func (w *World) Params() *netmodel.Params { return w.prm }

// Engine exposes the underlying simulation engine (for custom resources).
func (w *World) Engine() *sim.Engine { return w.eng }

// Phantom reports whether shared-memory regions are size-only.
func (w *World) Phantom() bool { return w.phantom }

// PerWorld wraps build so that, within one world, it runs once per arg
// and every later caller gets the same value back. It is how the ranks of
// a job share what is identical for all of them — a schedule built or a
// plan lowered for the world's machine and a message size — instead of
// deriving it once per rank; callers must treat the value as read-only.
// build must be a function of w.Topo() and arg alone: on a world built on
// a Shared table the value goes into the table, and every later world of
// the table gets it without a build. Otherwise it lives exactly as long
// as the world. Nothing is ever evicted or invalidated. build must not
// block in virtual time, so it returns, or panics and ends the
// simulation, before any other rank asks.
func PerWorld[T any](build func(w *World, arg int) T) func(w *World, arg int) T {
	id := new(byte)
	return func(w *World, arg int) T {
		key := perWorldKey{id, arg}
		v, ok := w.shared[key]
		if !ok {
			v = build(w, arg)
			if w.shared == nil {
				w.shared = map[perWorldKey]any{}
			}
			w.shared[key] = v
		}
		return v.(T)
	}
}

// perturb applies the configured OS/fabric noise to a modeled duration:
// a uniform factor in [1, 1+2*Jitter]. With Jitter == 0 it is identity.
// Draws happen in deterministic virtual-time order (the engine runs one
// process at a time), so a fixed seed reproduces exactly.
func (w *World) perturb(d sim.Duration) sim.Duration {
	if w.jitter == nil {
		return d
	}
	f := 1 + 2*w.prm.Jitter*w.jitter.Float64()
	return sim.Duration(float64(d) * f)
}

// Run spawns one simulated process per rank, each executing body, and runs
// the simulation to completion.
func (w *World) Run(body func(*Proc)) error {
	for r := range w.ranks {
		rs := &w.ranks[r]
		w.eng.Spawn(rs.mbox.Name(), func(sp *sim.Proc) {
			body(&Proc{sp: sp, w: w, rs: rs})
			if now := sp.Now(); now > w.makespan {
				w.makespan = now
			}
		})
	}
	return w.eng.Run()
}

// Makespan returns the latest virtual time at which a rank's body
// returned: the paper's measure of a collective timed on a fresh world
// (every point of Figs. 11-15). It is 0 before Run. Engine().Stats().Now
// is not the same thing — a gauge decrement or a fault edge that fires
// after the last rank finished moves the engine's clock, not this.
func (w *World) Makespan() sim.Time { return w.makespan }

// Proc is the per-rank handle passed to the rank body. All its methods must
// be called from that rank's body.
type Proc struct {
	sp *sim.Proc
	w  *World
	rs *rankState
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rs.rank }

// Sim exposes the underlying simulated process, so schedulers layered on
// the runtime (internal/cluster) can block a rank on engine primitives —
// e.g. a control mailbox — between collective assignments.
func (p *Proc) Sim() *sim.Proc { return p.sp }

// Size returns the world size.
func (p *Proc) Size() int { return p.w.topo.Size() }

// Node returns the node index hosting this rank.
func (p *Proc) Node() int { return p.rs.node }

// Local returns the rank's index within its node.
func (p *Proc) Local() int { return p.rs.local }

// World returns the job this process belongs to.
func (p *Proc) World() *World { return p.w }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// IsLeader reports whether this rank is its node's leader (local 0).
func (p *Proc) IsLeader() bool { return p.rs.local == 0 }

// Compute occupies this rank's CPU for d, modeling local computation.
func (p *Proc) Compute(d sim.Duration) {
	if d <= 0 {
		return
	}
	start := p.Now()
	_, end := p.rs.cpu.Acquire(d)
	p.sp.WaitUntil(end)
	p.trace(trace.CatCompute, "compute", start, end, -1, 0)
}

// LocalCopy models a local memcpy of n bytes (e.g. send buffer to receive
// buffer at the start of a non-in-place collective), subject to the node's
// memory congestion, and performs the byte copy if both buffers are real.
func (p *Proc) LocalCopy(dst, src Buf) {
	n := src.Len()
	dst.CopyFrom(src)
	nd := &p.w.nodes[p.rs.node]
	conc := nd.mem.Inc()
	d := p.w.perturb(p.w.prm.CopyTime(n, conc))
	start, end := p.rs.cpu.Acquire(d)
	nd.mem.DecAt(end)
	p.sp.WaitUntil(end)
	p.trace(trace.CatCompute, "localcopy", start, end, -1, n)
}

// ChargeCopy models the time of a local memcpy of n bytes (congested, on
// this rank's CPU) without moving any data. Collectives use it for bulk
// buffer shuffles whose data movement is done separately via Buf.CopyFrom.
func (p *Proc) ChargeCopy(n int) {
	if n <= 0 {
		return
	}
	nd := &p.w.nodes[p.rs.node]
	conc := nd.mem.Inc()
	d := p.w.perturb(p.w.prm.CopyTime(n, conc))
	start, end := p.rs.cpu.Acquire(d)
	nd.mem.DecAt(end)
	p.sp.WaitUntil(end)
	p.trace(trace.CatCompute, "memcopy", start, end, -1, n)
}

// ChargeCMA models the time of a receiver-driven CMA pull of n bytes
// (process_vm_readv performed by this rank's CPU against another rank's
// address space), congested like any CMA transfer. Pair it with ByRef
// sends for leader-driven gathers.
func (p *Proc) ChargeCMA(n int) {
	if n <= 0 {
		return
	}
	nd := &p.w.nodes[p.rs.node]
	conc := nd.mem.Inc()
	d := p.w.perturb(p.w.prm.CMATime(n, conc))
	start, end := p.rs.cpu.Acquire(d)
	nd.mem.DecAt(end)
	p.sp.WaitUntil(end)
	p.trace(trace.CatRecv, "cma-pull", start, end, -1, n)
}

// Sleep advances this rank's virtual clock without occupying any resource.
//
//lint:ignore unreached TestMakespanIsTheLatestRankFinish and TestNonblockingOverlap stagger ranks through it
func (p *Proc) Sleep(d sim.Duration) { p.sp.Sleep(d) }

func (p *Proc) trace(cat trace.Category, name string, start, end sim.Time, peer, bytes int) {
	if p.w.tracer == nil {
		return
	}
	p.w.tracer.Add(trace.Event{
		Rank: p.rs.rank, Cat: cat, Name: name,
		Start: start, End: end, Peer: peer, Bytes: bytes,
	})
}
