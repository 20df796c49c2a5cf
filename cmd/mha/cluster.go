package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mha/internal/bench"
	"mha/internal/cluster"
	"mha/internal/faults"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// clusterCmds drive the multi-tenant cluster scheduler
// (internal/cluster): streams of collective jobs admitted onto ONE shared
// simulated fabric, contending for HCA rails and memory buses in
// overlapping virtual time. They answer operator questions the single-job
// tools cannot: how much does co-scheduling slow each tenant down, which
// placement policy contains the interference, and what does the queue
// look like under load.
//
//	mha cluster run -nodes 8 -ppn 4 -hcas 2 -jobs 8 -policy rail-aware   # one workload, per-job metrics
//	mha cluster sweep -jobs 4,8,16,32 -policy rail-aware                 # load sweep, aggregate metrics
//	mha cluster policy-compare -workload burst                           # all policies on one workload
//
// Workloads are deterministic: -workload random draws a seeded stream of
// allgather/allreduce/bcast jobs; -workload burst issues simultaneous
// 256 KB allgathers that force rail sharing under packed placement. The
// exit status is 0 on success; byte-check failures (with -payload) and
// teardown violations exit 1.
var clusterCmds = []tool{
	{"run", "run one workload under one policy; print per-job metrics", clusterRun},
	{"sweep", "run the workload at several job counts; print aggregates", clusterSweep},
	{"policy-compare", "run one workload under every placement policy", clusterCompare},
}

// opts carries the flags shared by every subcommand, and what they name.
type opts struct {
	workload    *string
	jobs        *string
	seed        *int64
	policy      *string
	queue       *string
	maxInFlight *int
	payload     *bool
	horizon     *time.Duration
	faultSpec   *string
	blind       *bool
	timeline    *bool
	width       *int

	topo   topology.Cluster
	counts []int
}

// clusterFlags parses the subcommand's flags and resolves the cluster
// and the job counts they name.
func clusterFlags(name string, args []string) (*opts, error) {
	fs := flag.NewFlagSet("mha cluster "+name, flag.ExitOnError)
	o := &opts{}
	shape := shapeFlags(fs, 8, 4, 2)
	o.workload = fs.String("workload", "random", "workload kind: random (seeded stream) or burst (simultaneous allgathers)")
	o.jobs = fs.String("jobs", "8", "job count; sweep accepts a comma-separated list")
	o.seed = fs.Int64("seed", 42, "seed for -workload random")
	o.policy = fs.String("policy", cluster.RailAware, "placement policy: packed, spread, or rail-aware")
	o.queue = fs.String("queue", "fifo", "admission queue: fifo or priority")
	o.maxInFlight = fs.Int("maxinflight", 0, "backpressure knob: max jobs running at once (0 = unlimited)")
	o.payload = fs.Bool("payload", false, "carry and byte-check real payloads (slower)")
	o.horizon = fs.Duration("horizon", 400*time.Microsecond, "arrival horizon for -workload random (virtual time)")
	o.faultSpec = fs.String("faults", "", "fault schedule, ';'-separated lines of the internal/faults spec language")
	o.blind = fs.Bool("blind", false, "run the transport health-blind (naive failover baseline)")
	o.timeline = fs.Bool("timeline", false, "print an ASCII timeline of the run")
	o.width = fs.Int("width", 100, "timeline width in columns")
	fs.Parse(args)
	var err error
	if o.counts, err = o.jobCounts(); err != nil {
		return nil, err
	}
	o.topo, err = shape()
	return o, err
}

func (o *opts) faults() (*faults.Schedule, error) {
	if *o.faultSpec == "" {
		return nil, nil
	}
	return faults.Parse(strings.ReplaceAll(*o.faultSpec, ";", "\n"))
}

// jobCounts parses the -jobs flag (a single count for run/policy-compare,
// a comma-separated list for sweep).
func (o *opts) jobCounts() ([]int, error) {
	parts := strings.Split(*o.jobs, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -jobs entry %q (want positive integers)", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// makeJobs builds the deterministic workload.
func (o *opts) makeJobs(n int) ([]cluster.JobSpec, error) {
	switch *o.workload {
	case "random":
		return cluster.RandomJobs(*o.seed, n, o.topo, sim.Duration(*o.horizon)), nil
	case "burst":
		ranks := 6
		if ranks > o.topo.Size() {
			ranks = o.topo.Size()
		}
		jobs := make([]cluster.JobSpec, n)
		for i := range jobs {
			jobs[i] = cluster.JobSpec{ID: i, Coll: cluster.Allgather, Msg: 256 << 10, Ranks: ranks}
		}
		return jobs, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want random or burst)", *o.workload)
}

// runOnce executes one cluster run and fails on byte errors.
func runOnce(o *opts, policy string, n int, rec *trace.Recorder) (*cluster.Result, error) {
	sched, err := o.faults()
	if err != nil {
		return nil, err
	}
	jobs, err := o.makeJobs(n)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(cluster.Config{
		Topo:        o.topo,
		Policy:      policy,
		Queue:       *o.queue,
		MaxInFlight: *o.maxInFlight,
		Payload:     *o.payload,
		Tracer:      rec,
		Faults:      sched,
		FaultBlind:  *o.blind,
	}, jobs)
	if err != nil {
		return nil, err
	}
	if len(res.Errors) > 0 {
		return nil, fmt.Errorf("byte-check failures: %s", strings.Join(res.Errors, "; "))
	}
	return res, nil
}

func clusterRun(args []string) error {
	o, err := clusterFlags("run", args)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *o.timeline {
		rec = trace.New()
	}
	res, err := runOnce(o, *o.policy, o.counts[0], rec)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %v  policy=%s queue=%s maxinflight=%d workload=%s\n",
		o.topo, *o.policy, *o.queue, *o.maxInFlight, *o.workload)
	t := bench.NewTable("per-job metrics",
		"job", "coll", "ranks", "size", "arrival (us)", "wait (us)", "makespan (us)", "slowdown", "rail share", "nodes")
	for _, jm := range res.Jobs {
		t.Add(jm.Spec.ID, jm.Spec.Coll.String(), jm.Spec.Ranks, bench.SizeLabel(jm.Spec.Msg),
			jm.Spec.Arrival.Micros(), jm.Wait.Micros(), jm.Makespan.Micros(),
			fmt.Sprintf("%.2fx", jm.Slowdown), fmt.Sprintf("%.2f", jm.RailShare),
			fmt.Sprintf("%v", jm.Placement))
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("makespan %.2f us, mean wait %.2f us, mean slowdown %.2fx, max slowdown %.2fx, trace hash %#x\n",
		res.Makespan.Micros(), res.MeanWait.Micros(), res.MeanSlowdown, res.MaxSlowdown, res.Hash)
	if *o.timeline {
		fmt.Print(rec.Timeline(*o.width))
	}
	return nil
}

func clusterSweep(args []string) error {
	o, err := clusterFlags("sweep", args)
	if err != nil {
		return err
	}
	t := bench.NewTable(fmt.Sprintf("load sweep, policy=%s queue=%s", *o.policy, *o.queue),
		"jobs", "makespan (us)", "mean wait (us)", "mean slowdown", "max slowdown")
	for _, n := range o.counts {
		res, err := runOnce(o, *o.policy, n, nil)
		if err != nil {
			return fmt.Errorf("%d jobs: %v", n, err)
		}
		t.Add(n, res.Makespan.Micros(), res.MeanWait.Micros(),
			fmt.Sprintf("%.2fx", res.MeanSlowdown), fmt.Sprintf("%.2fx", res.MaxSlowdown))
	}
	return t.Fprint(os.Stdout)
}

func clusterCompare(args []string) error {
	o, err := clusterFlags("policy-compare", args)
	if err != nil {
		return err
	}
	t := bench.NewTable(fmt.Sprintf("policy comparison, workload=%s jobs=%d", *o.workload, o.counts[0]),
		"policy", "makespan (us)", "mean wait (us)", "mean slowdown", "max slowdown")
	best, bestSlow := "", 0.0
	for _, policy := range cluster.Policies() {
		res, err := runOnce(o, policy, o.counts[0], nil)
		if err != nil {
			return fmt.Errorf("%s: %v", policy, err)
		}
		t.Add(policy, res.Makespan.Micros(), res.MeanWait.Micros(),
			fmt.Sprintf("%.2fx", res.MeanSlowdown), fmt.Sprintf("%.2fx", res.MaxSlowdown))
		if best == "" || res.MeanSlowdown < bestSlow {
			best, bestSlow = policy, res.MeanSlowdown
		}
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("lowest mean slowdown: %s (%.2fx)\n", best, bestSlow)
	return nil
}
