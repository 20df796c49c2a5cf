// Package cluster is a multi-tenant job scheduler for the simulated
// fabric: it admits a stream of collective jobs (allgather, allreduce,
// bcast, reduce-scatter, alltoall, gather and scatter over rank
// subsets) and runs them concurrently on ONE shared mpi.World, so jobs genuinely contend for HCA rails, leaf uplinks, and
// memory buses — the regime any production deployment lives in and the
// single-job experiments cannot measure.
//
// The scheduler itself is a simulated process: job arrivals are events,
// admission decisions happen in virtual time, and every rank is a worker
// that loops on a control mailbox, executing whichever job's collective
// it was placed into. Everything is deterministic — the same Config and
// job list produce bit-identical schedules, metrics, and trace hashes.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/faults"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// Coll identifies which collective a job runs.
type Coll int

// The collectives the scheduler can run. The last four are derived by
// the compose layer and dispatch through its goal interpreter.
const (
	Allgather Coll = iota
	Allreduce
	Bcast
	ReduceScatter
	Alltoall
	Gather
	Scatter
)

func (c Coll) String() string {
	switch c {
	case Allgather:
		return "allgather"
	case Allreduce:
		return "allreduce"
	case Bcast:
		return "bcast"
	case ReduceScatter:
		return "reduce-scatter"
	case Alltoall:
		return "alltoall"
	case Gather:
		return "gather"
	case Scatter:
		return "scatter"
	}
	return fmt.Sprintf("coll(%d)", int(c))
}

// JobSpec is one tenant's request: a collective over some number of
// ranks, arriving at a virtual time.
type JobSpec struct {
	// ID names the job in metrics, traces, and audit attributions.
	ID int
	// Coll is the collective to run.
	Coll Coll
	// Msg is the payload size in bytes: per-rank contribution for
	// allgather, whole buffer for allreduce (multiple of 8) and bcast,
	// and per-slot payload for the compose-derived collectives (a
	// reduce-scatter job's send buffer is Ranks*Msg bytes).
	Msg int
	// Ranks is how many ranks the job needs (1..world size).
	Ranks int
	// Arrival is when the job enters the admission queue.
	Arrival sim.Time
	// Priority orders admission under Queue="priority" (higher first).
	Priority int
}

// Config describes one scheduler run.
type Config struct {
	// Topo is the shared fabric every job contends on (required).
	Topo topology.Cluster
	// Params is the communication cost model; nil means netmodel.Thor().
	Params *netmodel.Params
	// Policy places admitted jobs onto free ranks: "packed", "spread",
	// or "rail-aware" ("" = packed). See policy.go.
	Policy string
	// Queue orders admission: "fifo" (strict arrival order) or
	// "priority" (highest Priority first, ties by arrival). "" = fifo.
	// Both queues are head-of-line blocking: when the next job does not
	// fit, nothing behind it is admitted — the backpressure that makes
	// queue-wait measurable.
	Queue string
	// MaxInFlight caps how many jobs run concurrently (0 = unlimited).
	// It is the backpressure knob: 1 serializes the cluster, higher
	// values trade queue wait for contention slowdown.
	MaxInFlight int
	// Payload runs every job with real buffers and byte-checks each
	// result against its oracle; failures land in Result.Errors.
	// Without it, buffers are phantom (sizes only).
	Payload bool
	// Tracer, when non-nil, records every event of every job plus the
	// scheduler's admission decisions (trace.CatJob).
	Tracer *trace.Recorder
	// Seed feeds the world's jitter RNG (only used when Params.Jitter>0).
	Seed int64
	// Faults degrades rails over the run; the rail-aware policy also
	// reads it when ranking nodes.
	Faults *faults.Schedule
	// FaultBlind disables health-aware transport selection (see mpi).
	FaultBlind bool
	// SkipIsolated skips the per-job isolated-baseline runs; Slowdown
	// and the slowdown aggregates are then zero.
	SkipIsolated bool
}

// JobMetrics is what one job experienced on the shared cluster.
type JobMetrics struct {
	Spec JobSpec
	// Placement is the world ranks the job ran on, in comm-rank order.
	Placement []int
	// Start is when the job was admitted and dispatched; End is when its
	// last rank finished the collective.
	Start, End sim.Time
	// Wait is Start - Arrival: time spent in the admission queue.
	Wait sim.Duration
	// Makespan is End - Start: the job's contended runtime.
	Makespan sim.Duration
	// Isolated is the same job's runtime alone on an idle, healthy
	// fabric with the same placement (0 when SkipIsolated).
	Isolated sim.Duration
	// Slowdown is Makespan/Isolated (0 when SkipIsolated).
	Slowdown float64
	// RailShare approximates how occupied the job's nodes' rails were
	// during its run: the busy-time booked on those rails over the job's
	// window divided by their capacity. Competing jobs sharing the nodes
	// count too — by design, it is a contention gauge.
	RailShare float64
}

// Result aggregates a scheduler run.
type Result struct {
	// Jobs holds per-job metrics in input order.
	Jobs []JobMetrics
	// Makespan is when the last job finished.
	Makespan sim.Time
	// MeanWait averages queue wait across jobs.
	MeanWait sim.Duration
	// MeanSlowdown / MaxSlowdown aggregate contended-vs-isolated ratios
	// (0 when SkipIsolated).
	MeanSlowdown, MaxSlowdown float64
	// Hash fingerprints the trace (0 without a Tracer) — two runs of the
	// same Config must agree.
	Hash uint64
	// Errors collects byte-check failures (Payload mode only).
	Errors []string
}

// Control-plane messages. Workers and the scheduler exchange them through
// sim mailboxes, so every decision happens at a deterministic virtual
// time.
type (
	arrivalMsg struct{ idx int }
	doneMsg    struct{ jobID, worldRank int }
	assignMsg  struct {
		job  JobSpec
		comm *mpi.Comm
		plan *compose.Plan // see lower
		ix   *sched.Index
	}
	stopMsg struct{}
)

// runInfo is the scheduler's state for one in-flight job.
type runInfo struct {
	idx       int // index into the jobs slice
	remaining int // ranks that have not reported completion yet
	placement []int
	nodes     []int
	start     sim.Time
	busyAt    sim.Duration // rail busy-time on the job's nodes at dispatch
}

// Validate reports why the configuration or job list is not runnable.
func Validate(cfg Config, jobs []JobSpec) error {
	if err := cfg.Topo.Validate(); err != nil {
		return err
	}
	switch cfg.Policy {
	case "", Packed, Spread, RailAware:
	default:
		return fmt.Errorf("cluster: unknown policy %q (have %v)", cfg.Policy, Policies())
	}
	switch cfg.Queue {
	case "", "fifo", "priority":
	default:
		return fmt.Errorf("cluster: unknown queue %q (fifo or priority)", cfg.Queue)
	}
	if cfg.MaxInFlight < 0 {
		return fmt.Errorf("cluster: negative MaxInFlight %d", cfg.MaxInFlight)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("cluster: no jobs")
	}
	size := cfg.Topo.Size()
	seen := map[int]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			return fmt.Errorf("cluster: duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.Ranks < 1 || j.Ranks > size {
			return fmt.Errorf("cluster: job %d needs %d ranks, world has %d", j.ID, j.Ranks, size)
		}
		if j.Msg < 0 {
			return fmt.Errorf("cluster: job %d has negative message size", j.ID)
		}
		if j.Coll == Allreduce && j.Msg%8 != 0 {
			return fmt.Errorf("cluster: job %d: allreduce size %d is not a multiple of 8", j.ID, j.Msg)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("cluster: job %d arrives at negative time", j.ID)
		}
		if j.Coll < Allgather || j.Coll > Scatter {
			return fmt.Errorf("cluster: job %d: unknown collective %v", j.ID, j.Coll)
		}
		if _, err := lowerPlan(j); err != nil {
			return fmt.Errorf("cluster: job %d: %v", j.ID, err)
		}
	}
	if cfg.Faults.Len() > 0 {
		if err := cfg.Faults.Check(cfg.Topo.Nodes, cfg.Topo.HCAs); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the job stream on one shared world and returns per-job and
// aggregate metrics. The run is deterministic: identical inputs give
// identical schedules, metrics, and (with a Tracer) trace hashes.
func Run(cfg Config, jobs []JobSpec) (*Result, error) {
	if err := Validate(cfg, jobs); err != nil {
		return nil, err
	}
	w := mpi.New(mpi.Config{
		Topo: cfg.Topo, Params: cfg.Params, Tracer: cfg.Tracer,
		Phantom: !cfg.Payload, Seed: cfg.Seed,
		Faults: cfg.Faults, FaultBlind: cfg.FaultBlind,
	})
	eng := w.Engine()
	size := cfg.Topo.Size()

	schedM := eng.NewMailbox("cluster.sched")
	schedM.SetOwner("cluster-scheduler")
	ctl := make([]*sim.Mailbox, size)
	for r := range ctl {
		ctl[r] = eng.NewMailbox(fmt.Sprintf("cluster.ctl%d", r))
		ctl[r].SetOwner("cluster-scheduler")
	}
	// Arrivals are pre-deposited events: the scheduler just consumes its
	// mailbox and the engine delivers everything in virtual-time order.
	for i, j := range jobs {
		schedM.PutAt(j.Arrival, arrivalMsg{idx: i})
	}

	metrics := make([]JobMetrics, len(jobs))
	for i, j := range jobs {
		metrics[i] = JobMetrics{Spec: j, Wait: -1}
	}
	var errMu sync.Mutex
	var errs []string
	report := func(s string) {
		errMu.Lock()
		if len(errs) < 32 {
			errs = append(errs, s)
		}
		errMu.Unlock()
	}
	any := func(interface{}) bool { return true }

	eng.Spawn("cluster.sched", func(sp *sim.Proc) {
		free := make([]bool, size)
		for i := range free {
			free[i] = true
		}
		jobsOnNode := make([]int, cfg.Topo.Nodes)
		var queue []int // indices into jobs, in arrival order
		running := map[int]*runInfo{}
		left := len(jobs)
		for left > 0 {
			switch m := schedM.Get(sp, "cluster event", any).(type) {
			case arrivalMsg:
				queue = append(queue, m.idx)
			case doneMsg:
				info := running[m.jobID]
				free[m.worldRank] = true
				info.remaining--
				if info.remaining == 0 {
					now := sp.Now()
					jm := &metrics[info.idx]
					jm.End = now
					jm.Makespan = sim.Duration(now - jm.Start)
					jm.RailShare = railShare(w, info, now, cfg.Topo.HCAs)
					for _, nd := range info.nodes {
						jobsOnNode[nd]--
					}
					delete(running, m.jobID)
					left--
					jobTrace(cfg.Tracer, info.placement[0], now,
						fmt.Sprintf("finish job%d", m.jobID), jobs[info.idx].Msg)
				}
			}
			// Admission: head-of-line blocking on the queue's next pick,
			// bounded by the MaxInFlight backpressure knob.
			for len(queue) > 0 {
				if cfg.MaxInFlight > 0 && len(running) >= cfg.MaxInFlight {
					break
				}
				pos := pickNext(queue, jobs, cfg.Queue)
				job := jobs[queue[pos]]
				now := sp.Now()
				placement := place(cfg.Policy, w, free, jobsOnNode, job.Ranks, now)
				if placement == nil {
					break // not enough free ranks: wait for a completion
				}
				idx := queue[pos]
				queue = append(queue[:pos], queue[pos+1:]...)
				info := &runInfo{idx: idx, remaining: job.Ranks, placement: placement, start: now}
				for _, r := range placement {
					free[r] = false
				}
				info.nodes = placementNodes(cfg.Topo, placement)
				for _, nd := range info.nodes {
					jobsOnNode[nd]++
				}
				info.busyAt = railBusy(w, info.nodes)
				running[job.ID] = info
				comm := w.NewComm(placement)
				comm.SetOwner(fmt.Sprintf("job%d", job.ID))
				jm := &metrics[idx]
				jm.Start = now
				jm.Wait = sim.Duration(now - job.Arrival)
				jm.Placement = placement
				jobTrace(cfg.Tracer, placement[0], now,
					fmt.Sprintf("dispatch job%d(%s %s x%d)", job.ID, job.Coll, algName(job.Coll), job.Ranks), job.Msg)
				a := assignMsg{job: job, comm: comm}
				a.plan, a.ix = lower(job)
				for _, r := range placement {
					ctl[r].PutAt(now, a)
				}
			}
		}
		for _, mb := range ctl {
			mb.PutAt(sp.Now(), stopMsg{})
		}
	})

	err := w.Run(func(p *mpi.Proc) {
		sp := p.Sim()
		mb := ctl[p.Rank()]
		for {
			switch m := mb.Get(sp, "cluster assignment", any).(type) {
			case stopMsg:
				return
			case assignMsg:
				runJob(p, m, cfg.Payload, report)
				schedM.PutAt(p.Now(), doneMsg{jobID: m.job.ID, worldRank: p.Rank()})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if terr := w.VerifyTeardown(); terr != nil {
		return nil, terr
	}

	res := &Result{Jobs: metrics, Makespan: eng.Stats().Now, Errors: errs, Hash: cfg.Tracer.Hash()}
	iso := map[string]sim.Duration{}
	for i := range res.Jobs {
		jm := &res.Jobs[i]
		res.MeanWait += jm.Wait
		if !cfg.SkipIsolated {
			jm.Isolated = isolatedTime(cfg, jm.Spec, jm.Placement, iso)
			if jm.Isolated > 0 {
				jm.Slowdown = float64(jm.Makespan) / float64(jm.Isolated)
			}
			res.MeanSlowdown += jm.Slowdown
			if jm.Slowdown > res.MaxSlowdown {
				res.MaxSlowdown = jm.Slowdown
			}
		}
	}
	res.MeanWait /= sim.Duration(len(jobs))
	res.MeanSlowdown /= float64(len(jobs))
	return res, nil
}

// jobTrace records a scheduler decision on the job's lead rank's lane.
func jobTrace(rec *trace.Recorder, rank int, at sim.Time, name string, bytes int) {
	if rec == nil {
		return
	}
	rec.Add(trace.Event{Rank: rank, Cat: trace.CatJob, Name: name,
		Start: at, End: at, Peer: -1, Bytes: bytes})
}

// pickNext returns the position in queue of the job to admit next: the
// head for FIFO, the highest-priority job (ties to arrival order) for the
// priority queue.
func pickNext(queue []int, jobs []JobSpec, q string) int {
	if q != "priority" {
		return 0
	}
	best := 0
	for i := 1; i < len(queue); i++ {
		if jobs[queue[i]].Priority > jobs[queue[best]].Priority {
			best = i
		}
	}
	return best
}

// placementNodes returns the distinct nodes of a placement, ascending.
func placementNodes(topo topology.Cluster, placement []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range placement {
		nd := topo.NodeOf(r)
		if !seen[nd] {
			seen[nd] = true
			out = append(out, nd)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// railBusy sums the booked busy-time of every rail engine on the given
// nodes.
func railBusy(w *mpi.World, nodes []int) sim.Duration {
	var sum sim.Duration
	for _, st := range w.RailStats() {
		for _, nd := range nodes {
			if st.Node == nd {
				sum += st.TxBusy + st.RxBusy
			}
		}
	}
	return sum
}

// railShare computes the fraction of the job's nodes' rail capacity that
// was booked during its run window: busy-time delta on those rails
// divided by (2 engines x rails x nodes x window). Busy time is booked at
// acquire time, so transfers posted near the end that drain later are
// charged in full — the metric is an occupancy gauge, not an exact
// integral, and competing jobs on shared nodes count by design.
func railShare(w *mpi.World, info *runInfo, end sim.Time, hcas int) float64 {
	window := sim.Duration(end - info.start)
	capacity := float64(2*hcas*len(info.nodes)) * float64(window)
	if capacity <= 0 {
		return 0
	}
	delta := float64(railBusy(w, info.nodes) - info.busyAt)
	if delta < 0 {
		return 0
	}
	return delta / capacity
}

// isolatedTime measures the job alone on a fresh, idle, healthy fabric
// with the same shape and placement — the denominator of Slowdown.
// Buffers are phantom (the byte-level check already ran on the shared
// world). Results are cached per (collective, msg, placement).
func isolatedTime(cfg Config, job JobSpec, placement []int, cache map[string]sim.Duration) sim.Duration {
	key := fmt.Sprintf("%d|%d|%v", job.Coll, job.Msg, placement)
	if d, ok := cache[key]; ok {
		return d
	}
	w := mpi.New(mpi.Config{Topo: cfg.Topo, Params: cfg.Params, Phantom: true, Seed: cfg.Seed})
	a := assignMsg{job: job, comm: w.NewComm(placement)}
	a.plan, a.ix = lower(job)
	if err := w.Run(func(p *mpi.Proc) {
		if a.comm.Rank(p) < 0 {
			return
		}
		runJob(p, a, false, nil)
	}); err != nil {
		panic(fmt.Sprintf("cluster: isolated baseline for job %d failed: %v", job.ID, err))
	}
	d := sim.Duration(w.Engine().Stats().Now)
	cache[key] = d
	return d
}

// algName names the algorithm a job of the collective runs, for its
// dispatch label: ring for allgather, allreduce and reduce-scatter,
// binomial for bcast, direct for alltoall, gather and scatter.
func algName(c Coll) string {
	switch c {
	case Bcast:
		return "binomial"
	case Alltoall, Gather, Scatter:
		return "direct"
	default:
		return "ring"
	}
}

// composeColl maps each job collective to its compose counterpart, whose
// Geometry sizes the job's buffers and whose ExpectByte checks them in
// payload mode (allreduce keeps its own float64 oracle). The last four
// run their flat pipelines on arbitrary sub-communicators; the transport
// still routes each transfer over CMA or the rails by the ranks' real
// placement.
var composeColl = [...]compose.Collective{
	Allgather:     compose.Allgather,
	Allreduce:     compose.Allreduce,
	Bcast:         compose.Bcast,
	ReduceScatter: compose.ReduceScatter,
	Alltoall:      compose.Alltoall,
	Gather:        compose.Gather,
	Scatter:       compose.Scatter,
}

// lower lowers a compose-derived job's flat composition for its rank
// count and indexes the plan's schedule, once per job for all its ranks;
// the other collectives have no plan. Lowering makes no simulator calls,
// so it takes no virtual time wherever it runs. Run validates every job
// first, and Validate lowers it, so here lowering cannot fail.
func lower(job JobSpec) (*compose.Plan, *sched.Index) {
	plan, err := lowerPlan(job)
	if err != nil {
		panic(fmt.Sprintf("cluster: job %d: %v", job.ID, err))
	}
	if plan == nil {
		return nil, nil
	}
	return plan, sched.NewIndex(plan.Sched)
}

// lowerPlan is lower's plan, or why the job does not lower: past sched's
// message, step or block-space limits.
func lowerPlan(job JobSpec) (*compose.Plan, error) {
	switch job.Coll {
	case Allgather, Allreduce, Bcast:
		return nil, nil
	}
	flat := compose.NewHierarchy(topology.Cluster{Nodes: 1, PPN: job.Ranks, HCAs: 1, Layout: topology.Block})
	return compose.Lower(compose.Flat(composeColl[job.Coll]), flat, job.Msg, nil)
}

// runJob executes one job's collective on its communicator. In payload
// mode every rank's send buffer holds its compose.PatternByte row salted
// with the job's ID, so cross-job payload mixups surface as wrong bytes,
// and this rank's result is checked against compose.ExpectByte. A bcast
// runs in place, and only its root's buffer is filled.
func runJob(p *mpi.Proc, a assignMsg, payload bool, report func(string)) {
	job, c := a.job, a.comm
	if job.Coll == Allreduce {
		runAllreduce(p, c, job, payload, report)
		return
	}
	n, me := c.Size(), c.Rank(p)
	sendLen, recvLen := compose.Geometry(composeColl[job.Coll], n, job.Msg)
	send := mpi.Make(sendLen, !payload)
	recv := send
	if job.Coll != Bcast {
		recv = mpi.Make(recvLen, !payload)
	}
	if payload && (job.Coll != Bcast || me == 0) {
		for i := range send.Data() {
			send.Data()[i] = compose.PatternByte(job.ID, me, i)
		}
	}
	switch job.Coll {
	case Allgather:
		collectives.RingAllgather(p, c, send, recv)
	case Bcast:
		collectives.BinomialBcast(p, c, 0, recv)
	default:
		compose.ExecutePlanOn(p, c, a.plan, a.ix, send, recv)
	}
	if payload && report != nil {
		check(job, n, me, p.Rank(), recv.Data(), report)
	}
}

// check compares comm rank me's receive buffer of a job with
// compose.ExpectByte under the job's salt and reports the first wrong byte
// of every wrong block; rank is the world rank the report names.
func check(job JobSpec, n, me, rank int, data []byte, report func(string)) {
	coll, m := composeColl[job.Coll], job.Msg
	for blk := 0; m > 0 && blk*m < len(data); blk++ {
		for i, b := range data[blk*m : (blk+1)*m] {
			if want := compose.ExpectByte(coll, job.ID, n, m, me, blk, i); b != want {
				report(fmt.Sprintf("job %d rank %d: %s block %d byte %d = %#02x, want %#02x",
					job.ID, rank, job.Coll, blk, i, b, want))
				break
			}
		}
	}
}

func runAllreduce(p *mpi.Proc, c *mpi.Comm, job JobSpec, payload bool, report func(string)) {
	n := c.Size()
	buf := mpi.Make(job.Msg, !payload)
	me := c.Rank(p)
	vals := job.Msg / 8
	// Integer-valued float64 contributions sum exactly, so the oracle is
	// an equality check, not an epsilon comparison.
	contrib := func(r, k int) float64 { return float64(job.ID%13 + r + k%16) }
	if payload {
		for k := 0; k < vals; k++ {
			binary.LittleEndian.PutUint64(buf.Data()[k*8:], math.Float64bits(contrib(me, k)))
		}
	}
	collectives.RingAllreduce(p, c, buf, collectives.SumF64())
	if !payload || report == nil {
		return
	}
	for k := 0; k < vals; k++ {
		want := 0.0
		for r := 0; r < n; r++ {
			want += contrib(r, k)
		}
		got := math.Float64frombits(binary.LittleEndian.Uint64(buf.Data()[k*8:]))
		if got != want {
			report(fmt.Sprintf("job %d rank %d: allreduce value %d = %g, want %g",
				job.ID, p.Rank(), k, got, want))
			break
		}
	}
}
