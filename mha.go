// Package mha is a Go reproduction of "Designing Hierarchical Multi-HCA
// Aware Allgather in MPI" (Tran et al., ICPP Workshops 2022): the MHA
// collective algorithms, the conventional and two-level baselines they are
// evaluated against, the analytic cost models of the paper's Section 4,
// and the deterministic virtual-time cluster simulator everything runs on.
//
// The package is a facade over the internal implementation: it re-exports
// the types and functions a user composes. A minimal program looks like
//
//	w := mha.NewWorld(mha.Config{Topo: mha.NewCluster(4, 8, 2)})
//	err := w.Run(func(p *mha.Proc) {
//		send := mha.Bytes([]byte{byte(p.Rank())})
//		recv := mha.NewBuf(p.Size())
//		mha.Allgather(p, w, send, recv)
//	})
//
// Simulated ranks run one at a time, as coroutines of the goroutine that
// calls Run; payloads really move (so results are verifiable), and virtual
// time comes from a calibrated cost model of the paper's testbed (Thor: 2x
// HDR100 InfiniBand rails per node, CMA
// intra-node, shared-memory chunk pipelines). Pass Phantom buffers to run
// the paper's largest configurations (1024 ranks, multi-MB buffers)
// without materializing the data.
package mha

import (
	"fmt"
	"strings"

	"mha/internal/cluster"
	"mha/internal/collectives"
	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/explore"
	"mha/internal/fabric"
	"mha/internal/faults"
	"mha/internal/machines"
	"mha/internal/mpi"
	"mha/internal/netmodel"
	"mha/internal/perfmodel"
	"mha/internal/sched"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
	"mha/internal/tuner"
	"mha/internal/verify"
)

// Re-exported core types. See the internal packages for full method
// documentation.
type (
	// Cluster describes the simulated machine: nodes x PPN x HCAs.
	Cluster = topology.Cluster
	// Params is the communication cost model (Table 1 of the paper).
	Params = netmodel.Params
	// Config configures a simulated MPI job.
	Config = mpi.Config
	// World is one simulated MPI job.
	World = mpi.World
	// Proc is the per-rank handle inside World.Run.
	Proc = mpi.Proc
	// Comm is a communicator (group of ranks with its own numbering).
	Comm = mpi.Comm
	// Buf is a real or phantom message buffer.
	Buf = mpi.Buf
	// Request is an in-flight nonblocking operation.
	Request = mpi.Request
	// Profile is one library's collective selection logic.
	Profile = collectives.Profile
	// Reducer combines payloads element-wise (allreduce).
	Reducer = collectives.Reducer
	// Model evaluates the paper's analytic cost equations.
	Model = perfmodel.Model
	// Recorder collects timeline events for trace rendering.
	Recorder = trace.Recorder
	// Time is virtual nanoseconds since simulation start.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// InterConfig customizes the hierarchical MHA allgather.
	InterConfig = core.InterConfig
	// OffloadPoint is one sample of the offload tuning curve (Figure 5).
	OffloadPoint = core.OffloadPoint
)

// Virtual-time units for Duration and Time values.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// NewCluster returns a block-layout cluster of nodes x ppn with hcas
// network rails per node.
func NewCluster(nodes, ppn, hcas int) Cluster { return topology.New(nodes, ppn, hcas) }

// Thor returns the default cost-model calibration (the paper's testbed).
func Thor() *Params { return netmodel.Thor() }

// ThetaGPU returns an 8-rail HDR200 calibration for rail-scaling studies.
func ThetaGPU() *Params { return netmodel.ThetaGPU() }

// NewWorld builds a simulated MPI job. A World belongs to one goroutine at a
// time: build it, Run it and read its results on one, or hand it between
// goroutines with a channel; nothing in it is locked.
func NewWorld(cfg Config) *World { return mpi.New(cfg) }

// NewTracer returns an empty timeline recorder to pass in Config.Tracer. Like
// the World it records, a Recorder belongs to one goroutine at a time, so
// give each world running alongside others a recorder of its own.
func NewTracer() *Recorder { return trace.New() }

// Buffer constructors.
var (
	// Bytes wraps a byte slice as a real buffer.
	Bytes = mpi.Bytes
	// NewBuf allocates a zeroed real buffer.
	NewBuf = mpi.NewBuf
	// Phantom returns a size-only buffer (no backing bytes).
	Phantom = mpi.Phantom
)

// Allgather is the paper's contribution under its top-level entry point:
// the multi-HCA-aware allgather (MHA-intra on one node, the hierarchical
// MHA-inter design across nodes).
func Allgather(p *Proc, w *World, send, recv Buf) { core.MHAAllgather(p, w, send, recv) }

// AllgatherCfg runs the hierarchical design with explicit configuration
// (phase-2 algorithm, overlap and phase-1 ablations).
func AllgatherCfg(p *Proc, w *World, send, recv Buf, cfg InterConfig) {
	core.MHAInterAllgatherCfg(p, w, send, recv, cfg)
}

// IntraAllgather is MHA-intra (Section 3.1) on an arbitrary single-node
// communicator, with the analytic offload of Equation (1).
func IntraAllgather(p *Proc, c *Comm, send, recv Buf) {
	core.MHAIntraAllgather(p, c, send, recv)
}

// Allreduce is the improved ring allreduce of Section 5.4 (ring
// reduce-scatter + MHA allgather). The buffer must be a multiple of
// 8*size bytes; see MHAProfile for a padding-free entry point.
func Allreduce(p *Proc, w *World, buf Buf, red Reducer) { core.MHAAllreduce(p, w, buf, red) }

// SumF64 returns the float64-sum reducer used by the evaluation; MaxF64
// and MinF64 are the MPI_MAX/MPI_MIN analogues.
func SumF64() Reducer { return collectives.SumF64() }

// MaxF64 returns the element-wise float64 maximum reducer.
func MaxF64() Reducer { return collectives.MaxF64() }

// MinF64 returns the element-wise float64 minimum reducer.
func MinF64() Reducer { return collectives.MinF64() }

// The compared implementations, exposed as profiles.
var (
	// MHAProfile is the paper's design.
	MHAProfile = core.Profile
	// HPCXProfile models NVIDIA HPC-X (flat algorithms, pt2pt multirail).
	HPCXProfile = collectives.HPCX
	// MVAPICH2XProfile models MVAPICH2-X (two-level, sequential phases).
	MVAPICH2XProfile = collectives.MVAPICH2X
)

// Baseline algorithms, exported for comparison studies.
var (
	RingAllgather         = collectives.RingAllgather
	RDAllgather           = collectives.RDAllgather
	BruckAllgather        = collectives.BruckAllgather
	DirectSpreadAllgather = collectives.DirectSpreadAllgather
	RingAllreduce         = collectives.RingAllreduce
	RDAllreduce           = collectives.RDAllreduce
	// MultiLeaderAllgather is the Kandalla et al. multi-leader design with
	// a configurable leader count per node.
	MultiLeaderAllgather = collectives.MultiLeaderAllgather
)

// NumaThor returns the Thor calibration with a 1.5x cross-socket CMA
// penalty, for the 3-level NUMA studies (set Cluster.Sockets > 1).
func NumaThor() *Params { return netmodel.NumaThor() }

// Allgather3Level is the NUMA-aware 3-level hierarchical allgather (the
// paper's Section 7 future work): intra-socket, inter-socket, inter-node.
func Allgather3Level(p *Proc, w *World, send, recv Buf) {
	core.MHA3LevelAllgather(p, w, send, recv)
}

// The hierarchical multi-rail template applied to the other collectives
// (the paper's "address other collectives" future work), with their flat
// baselines alongside. Gather and scatter are the compose-derived
// variants (ComposedVariants).
var (
	Bcast            = core.MHABcast
	Reduce           = core.MHAReduce
	Alltoall         = core.MHAAlltoall
	BinomialBcast    = collectives.BinomialBcast
	BinomialReduce   = collectives.BinomialReduce
	PairwiseAlltoall = collectives.PairwiseAlltoall
)

// Machine is a named cluster preset (topology + calibration).
type Machine = machines.Machine

// Machines lists the named presets (thor, thor-numa, thetagpu, ...);
// MachineByName resolves one.
var (
	Machines      = machines.All
	MachineByName = machines.Get
)

// Fault injection: schedules of rail faults (outages, degraded bandwidth,
// added latency, flapping) drive the simulated HCAs and the rail-health
// registry the transport consults for failover and re-weighted striping.
// Pass a schedule in Config.Faults; set Config.FaultBlind for the naive
// (health-unaware) baseline.
type (
	// FaultSchedule is an immutable, deterministic set of rail faults.
	FaultSchedule = faults.Schedule
	// Fault is one fault: a Kind plus scope (node/rail/window) parameters.
	Fault = faults.Fault
	// FaultKind selects the failure mode of a Fault.
	FaultKind = faults.Kind
	// RailStat summarizes one rail's utilization after a run (World.RailStats).
	RailStat = mpi.RailStat
)

// The fault kinds and scope wildcards.
const (
	FaultDown    = faults.Down
	FaultDegrade = faults.Degrade
	FaultLatency = faults.Latency
	FaultFlap    = faults.Flap
	AllNodes     = faults.AllNodes
	AllRails     = faults.AllRails
)

// Fault-schedule constructors: NewFaultSchedule validates a fault list,
// ParseFaults reads the textual spec format ("down node=0 rail=1
// until=40us", one fault per line), and RandomFaults derives a
// reproducible schedule from a seed.
var (
	NewFaultSchedule = faults.New
	ParseFaults      = faults.Parse
	RandomFaults     = faults.Random
)

// Communication-schedule IR (internal/sched, mha sched): the
// collective designs as explicit data — steps of (src, dst, block
// window, transport/rail) transfers plus intra-node staging copies —
// with a static analyzer (correctness invariants, alpha-beta
// critical-path cost), an interpreter that executes any valid schedule
// on the simulated runtime, and a beam synthesizer over stripe/rail/
// fusion choices.
type (
	// Schedule is an explicit communication schedule.
	Schedule = sched.Schedule
	// ScheduleStep is one synchronization round of a Schedule.
	ScheduleStep = sched.Step
	// ScheduleTransfer is one point-to-point transfer of a step.
	ScheduleTransfer = sched.Transfer
	// ScheduleReport is the analyzer's verdict: cost plus traffic census.
	ScheduleReport = sched.Report
	// ScheduleBuilder accumulates steps into a validated Schedule.
	ScheduleBuilder = sched.Builder
	// SynthesisResult is the schedule-search outcome (best plan plus the
	// measured hand-written baselines).
	SynthesisResult = sched.SynthResult
	// SynthesisOptions is the schedule search's rail health and
	// analytic-pruning margin.
	SynthesisOptions = sched.SynthOptions
)

// Schedule lowerings, serialization, and tooling entry points.
var (
	// RingSchedule / RDSchedule / MHASchedule lower the hand-written
	// designs to the IR; MHASchedule uses the analytic offload (Eq. 1).
	RingSchedule = sched.Ring
	RDSchedule   = sched.RecursiveDoubling
	// ParseSchedule reads the text form or the JSON form, whose
	// transfers and copies are integer tuples (see Schedule.String and
	// Schedule.JSON); AnalyzeSchedule checks invariants and prices the
	// critical path; NewScheduleIndex lists every rank's transfers once
	// per schedule, and ExecuteSchedule runs a valid schedule with that
	// shared index as this rank's share of an allgather; SimulateSchedule
	// measures one phantom run.
	ParseSchedule    = sched.Parse
	AnalyzeSchedule  = sched.Analyze
	NewScheduleIndex = sched.NewIndex
	ExecuteSchedule  = sched.Execute
	SimulateSchedule = sched.Simulate
	// SynthesizeSchedule searches schedule space for a machine and
	// message size; the emitted plan simulates no slower than the best
	// hand-written lowering.
	SynthesizeSchedule = sched.Synthesize
)

// MHASchedule lowers the paper's two-phase hierarchical design to the
// schedule IR with the analytic phase-1 offload.
func MHASchedule(topo Cluster, prm *Params, msg int) *Schedule {
	return sched.TwoPhaseMHA(topo, prm, msg, sched.MHAOptions{Offload: sched.AutoOffload})
}

// Health-aware scheduling: a rail-health vector (one fraction per rail,
// 1 healthy, 0 down, in between degraded; nil = all healthy) threads
// through analysis, synthesis, and simulation, so schedules can be
// priced and searched for the machine as it is, not as built.
var (
	// AnalyzeScheduleHealth prices a schedule under a rail-health vector
	// and rejects schedules that pin transfers to down rails.
	AnalyzeScheduleHealth = sched.AnalyzeHealth
	// ApplyScheduleHealth reroutes a schedule's dead-rail pins onto the
	// runtime's health-aware striping, returning a repaired clone.
	ApplyScheduleHealth = sched.ApplyHealth
	// SimulateScheduleHealth measures one phantom run under the fault
	// schedule equivalent to a steady health vector.
	SimulateScheduleHealth = sched.SimulateHealth
)

// Compositional collectives (internal/compose, mha compose): a
// collective as a declarative pipeline of multicast / reduce / fence
// primitives over the machine hierarchy, compiled to the schedule IR
// and checked by the same analyzer and verification campaign as the
// hand-written designs (see DESIGN.md section 13).
type (
	// Composition is a named primitive pipeline deriving one collective.
	Composition = compose.Composition
	// CompositionPlan is a lowered composition: schedule plus goal,
	// ready for analysis, simulation, or execution.
	CompositionPlan = compose.Plan
	// Hierarchy is the machine view (world -> node -> leader-group ->
	// rail) that scoped primitives lower against.
	Hierarchy = compose.Hierarchy
	// Collective names the collective a composition derives.
	Collective = compose.Collective
)

// The derivable collectives.
const (
	AllgatherCollective     = compose.Allgather
	ReduceScatterCollective = compose.ReduceScatter
	AlltoallCollective      = compose.Alltoall
	GatherCollective        = compose.Gather
	ScatterCollective       = compose.Scatter
	AllreduceCollective     = compose.Allreduce
	BcastCollective         = compose.Bcast
)

// Composition entry points: the standard pipelines per collective, the
// text-form parsers, the hierarchy constructors, the compiler, and the
// derived-variant registry consumed by verification, the cluster job
// mix, and the bench experiments.
var (
	HierarchicalComposition = compose.Hierarchical
	FlatComposition         = compose.Flat
	ParseComposition        = compose.ParseComposition
	ParseHierarchy          = compose.ParseHierarchy
	NewHierarchy            = compose.NewHierarchy
	LowerComposition        = compose.Lower
	ComposedVariants        = compose.Variants
)

// The autotuner service (internal/tuner, cmd/mhatuned): schedule
// synthesis as a service. An Autotuner answers "best schedule for this
// (topology, ppn, rails, layout, message size, rail health)" queries
// from a deterministic LRU cache of synthesized decisions, deduplicating
// concurrent misses so each distinct machine state is synthesized once,
// and persisting the cache across restarts (see DESIGN.md section 11).
type (
	// Autotuner is the caching schedule-decision service.
	Autotuner = tuner.Service
	// AutotunerConfig sizes the cache and tunes the search.
	AutotunerConfig = tuner.Config
	// TunerQuery is one machine-state query.
	TunerQuery = tuner.Query
	// TunerDecision is the served answer: schedule plus pricing.
	TunerDecision = tuner.Decision
	// TunerStats is a point-in-time serving-statistics snapshot.
	TunerStats = tuner.Stats
)

// Autotuner entry points: NewAutotuner builds a service, ParseTunerQuery
// strictly parses a request body, AutotunerHandler serves the HTTP API
// (POST /v1/schedule, GET /v1/stats, GET /healthz), and
// WarmStartAutotuner pre-synthesizes the paper's Thor configurations.
var (
	NewAutotuner       = tuner.New
	ParseTunerQuery    = tuner.ParseQuery
	AutotunerHandler   = tuner.Handler
	WarmStartAutotuner = tuner.WarmStart
)

// NewModel builds the analytic cost model of Section 4 for a shape.
func NewModel(p *Params, c Cluster) Model { return perfmodel.New(p, c) }

// TuneOffload runs the empirical offload search of Section 3.1/Figure 5 on
// a single-node topology, returning the best offload and the sampled
// curve.
func TuneOffload(topo Cluster, prm *Params, msgSize, points int) (float64, []OffloadPoint) {
	return core.TuneOffload(topo, prm, msgSize, points)
}

// MeasureAllgather times one phantom-mode allgather of a profile on a
// fresh world — the building block for custom sweeps.
func MeasureAllgather(topo Cluster, prm *Params, msgSize int, prof Profile) Duration {
	return core.MeasureProfileAllgather(topo, prm, msgSize, prof)
}

// MeasureAllreduce times one phantom-mode allreduce of n bytes.
func MeasureAllreduce(topo Cluster, prm *Params, n int, prof Profile) Duration {
	return core.MeasureProfileAllreduce(topo, prm, n, prof)
}

// Verification: the randomized differential-verification harness (see
// mha verify and DESIGN.md section 7). Every registered variant runs
// with real payloads against a byte-exact oracle, under simulator
// invariant audits (clock monotonicity, resource-busy conservation,
// drained mailboxes at teardown) and a same-seed determinism cross-check.
// World.VerifyTeardown exposes the post-run audit for custom jobs.

// VerifyScenarioSpec replays one verification scenario given as the
// harness's one-line spec format, e.g.
//
//	alg=mha nodes=2 ppn=4 hcas=2 msg=257 faults=down node=0 rail=1 until=40us
//
// and returns an error describing every violated property, or nil.
func VerifyScenarioSpec(spec string) error {
	sc, err := verify.ParseSpec(spec)
	if err != nil {
		return err
	}
	vs := verify.Check(sc)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("mha: scenario %q failed verification: %s", sc.Spec(), strings.Join(msgs, "; "))
}

// VerifyCampaign runs n seeded random verification scenarios across every
// registered variant and returns an error carrying a shrunk,
// replayable repro spec for each failure, or nil when all pass.
func VerifyCampaign(n int, seed int64) error {
	rep, err := verify.Campaign(n, seed, verify.Options{})
	if err != nil {
		return err
	}
	if len(rep.Failures) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mha: %d of %d verification scenarios failed:", len(rep.Failures), rep.Scenarios)
	for _, f := range rep.Failures {
		fmt.Fprintf(&b, "\n  %s", f.Shrunk.Spec())
	}
	return fmt.Errorf("%s", b.String())
}

// Exhaustive exploration: the DPOR model checker for small worlds (see
// mha explore and DESIGN.md section 12). Where the verification
// campaign samples scenarios at random, Explore enumerates every
// meaningfully distinct interleaving of same-virtual-time events — and,
// with a fault budget, every single-rail-fault placement — checking the
// byte-exact oracle and the teardown audits at every terminal state.
type (
	// ExploreOptions selects the variants, world shape, and budgets of
	// an exhaustive exploration.
	ExploreOptions = explore.Options
	// ExploreReport summarizes an exploration: executions visited,
	// engine steps, the unreduced interleaving estimate, completeness,
	// and any counterexamples (each with a shrunk one-line repro spec).
	ExploreReport = explore.Report
)

// Explore exhaustively verifies the selected variants on a small world,
// visiting every meaningfully distinct event interleaving per fault
// placement. Worlds are capped at 8 ranks; the report is deterministic.
func Explore(opt ExploreOptions) (*ExploreReport, error) {
	return explore.Run(opt)
}

// ExploreReplay replays one explored schedule given as the explorer's
// one-line repro spec format, e.g.
//
//	alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=node0.rail1 sched=0.2.1
//
// and returns an error describing every violated property, or nil.
func ExploreReplay(spec string) error {
	s, err := explore.ParseSpec(spec)
	if err != nil {
		return err
	}
	vs, err := explore.Replay(s)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("mha: schedule %q failed verification: %s", s, strings.Join(msgs, "; "))
}

// Multi-tenant cluster scheduling: a stream of collective jobs admitted
// onto ONE shared fabric, running concurrently in virtual time and
// contending for HCA rails and memory buses (see mha cluster and
// DESIGN.md section 9).
type (
	// ClusterJob is one collective job in a scheduler workload: which
	// collective, how many ranks, how many bytes, when it arrives, and
	// its priority under the priority queue.
	ClusterJob = cluster.JobSpec
	// ClusterConfig configures a scheduler run: topology, placement
	// policy (ClusterPacked, ClusterSpread, ClusterRailAware), admission
	// queue, backpressure, payload checking, faults.
	ClusterConfig = cluster.Config
	// ClusterResult aggregates per-job metrics (queue wait, makespan,
	// slowdown vs isolated, rail share) and the cluster-wide summary.
	ClusterResult = cluster.Result
	// ClusterJobMetrics is one job's scheduling outcome.
	ClusterJobMetrics = cluster.JobMetrics
)

// Placement policies of the multi-tenant scheduler.
const (
	// ClusterPacked fills the lowest-numbered free ranks (fragmenting
	// jobs across shared nodes under load).
	ClusterPacked = cluster.Packed
	// ClusterSpread balances ranks across nodes by free-slot count.
	ClusterSpread = cluster.Spread
	// ClusterRailAware prefers nodes with no co-tenant jobs, the most
	// healthy rails, and the least rail backlog — the policy that keeps
	// tenants off each other's rails.
	ClusterRailAware = cluster.RailAware
)

// RunCluster admits jobs onto one shared simulated fabric and runs them
// to completion under cfg's policy, returning per-job and aggregate
// metrics. The run is deterministic: identical inputs give identical
// schedules, metrics, and (with a Tracer) trace hashes.
func RunCluster(cfg ClusterConfig, jobs []ClusterJob) (*ClusterResult, error) {
	return cluster.Run(cfg, jobs)
}

// ClusterRandomJobs draws a seeded, deterministic workload of n collective
// jobs (mixed allgather/allreduce/bcast, varied sizes and rank counts)
// with arrivals spread over the horizon.
func ClusterRandomJobs(seed int64, n int, topo Cluster, horizon Duration) []ClusterJob {
	return cluster.RandomJobs(seed, n, topo, horizon)
}

// Structured fabrics (internal/fabric, mha fabric): fat-tree and
// dragonfly inter-node network models with deterministic routing over
// shared per-link resources (DESIGN.md §14).
type (
	// FabricSpec describes a structured inter-node network. Set one in
	// Config.Fabric (as a pointer) to route cross-node traffic over its
	// shared links; nil keeps the flat non-blocking fabric.
	FabricSpec = fabric.Spec
	// FabricNetwork is a built fabric instance: links, capacities, and
	// the precomputed pairwise route table.
	FabricNetwork = fabric.Network
)

// ParseFabricSpec reads the compact fabric grammar: "flat",
// "ft:arity=2,levels=2,over=2:1", "dfly:groups=2,routers=2,nodes=2".
func ParseFabricSpec(text string) (FabricSpec, error) { return fabric.ParseSpec(text) }

// BuildFabric instantiates a fabric spec over a cluster for inspection
// (describe/route); worlds build their own from Config.Fabric.
func BuildFabric(spec FabricSpec, topo Cluster, prm *Params) (*FabricNetwork, error) {
	return fabric.Build(nil, spec, topo, prm)
}
