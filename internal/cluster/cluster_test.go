package cluster

import (
	"fmt"
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/faults"
	"mha/internal/sim"
	"mha/internal/topology"
	"mha/internal/trace"
)

// burst returns four 6-rank jobs arriving together on a 2-rail fabric:
// enough to force node sharing under packed placement on 8x4 (each job
// spans 1.5 nodes).
func burst() []JobSpec {
	return []JobSpec{
		{ID: 0, Coll: Allgather, Msg: 64 << 10, Ranks: 6},
		{ID: 1, Coll: Allgather, Msg: 64 << 10, Ranks: 6},
		{ID: 2, Coll: Allreduce, Msg: 64 << 10, Ranks: 6},
		{ID: 3, Coll: Bcast, Msg: 64 << 10, Ranks: 6},
	}
}

func burstCfg() Config {
	return Config{
		Topo:    topology.New(8, 4, 2),
		Payload: true,
		Tracer:  trace.New(),
	}
}

// TestConcurrentJobsByteCorrect is the core acceptance property: four
// jobs overlapping on one 2-rail world, every payload byte-checked, and
// the teardown audit clean (Run fails otherwise).
func TestConcurrentJobsByteCorrect(t *testing.T) {
	res, err := Run(burstCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("byte-check failures: %v", res.Errors)
	}
	overlaps := 0
	for i := range res.Jobs {
		ji := res.Jobs[i]
		if ji.End <= ji.Start {
			t.Fatalf("job %d has empty run window [%v, %v]", ji.Spec.ID, ji.Start, ji.End)
		}
		for j := i + 1; j < len(res.Jobs); j++ {
			jj := res.Jobs[j]
			if ji.Start < jj.End && jj.Start < ji.End {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("no two jobs overlapped in virtual time; the run was not concurrent")
	}
	if res.Hash == 0 {
		t.Fatal("trace hash not recorded")
	}
}

// TestDeterminism: two runs of the same config must agree on the trace
// hash, the cluster makespan, and every per-job metric.
func TestDeterminism(t *testing.T) {
	r1, err := Run(burstCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(burstCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != r2.Hash {
		t.Fatalf("trace hash diverged: %#x vs %#x", r1.Hash, r2.Hash)
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("makespan diverged: %v vs %v", r1.Makespan, r2.Makespan)
	}
	for i := range r1.Jobs {
		a, b := r1.Jobs[i], r2.Jobs[i]
		if a.Start != b.Start || a.End != b.End || a.Slowdown != b.Slowdown {
			t.Fatalf("job %d metrics diverged: %+v vs %+v", a.Spec.ID, a, b)
		}
	}
}

// TestUnderRailFault: the same burst with a rail outage plus a degrade
// window must stay byte-correct and deterministic.
func TestUnderRailFault(t *testing.T) {
	sched := faults.MustNew(
		faults.Fault{Kind: faults.Down, Node: 1, Rail: 1, Until: sim.Time(200 * sim.Microsecond)},
		faults.Fault{Kind: faults.Degrade, Node: 2, Rail: 0, Fraction: 0.4},
	)
	faultedCfg := func() Config {
		cfg := burstCfg() // fresh tracer per run: Hash is cumulative
		cfg.Faults = sched
		return cfg
	}
	r1, err := Run(faultedCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Errors) > 0 {
		t.Fatalf("byte-check failures under fault: %v", r1.Errors)
	}
	r2, err := Run(faultedCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != r2.Hash {
		t.Fatalf("trace hash diverged under fault: %#x vs %#x", r1.Hash, r2.Hash)
	}
}

// TestBackpressure: MaxInFlight=1 serializes the cluster — no overlap,
// strictly ordered starts, and a growing queue wait.
func TestBackpressure(t *testing.T) {
	cfg := burstCfg()
	cfg.MaxInFlight = 1
	res, err := Run(cfg, burst())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].Start < res.Jobs[i-1].End {
			t.Fatalf("jobs %d and %d overlap despite MaxInFlight=1", i-1, i)
		}
	}
	if res.Jobs[3].Wait <= res.Jobs[1].Wait || res.MeanWait <= 0 {
		t.Fatalf("serialized queue wait not increasing: %v then %v (mean %v)",
			res.Jobs[1].Wait, res.Jobs[3].Wait, res.MeanWait)
	}
	// Serialized jobs run alone: their slowdown must be ~1.
	for _, jm := range res.Jobs {
		if jm.Slowdown < 0.99 || jm.Slowdown > 1.01 {
			t.Fatalf("job %d serialized slowdown = %.3f, want ~1", jm.Spec.ID, jm.Slowdown)
		}
	}
}

// TestPriorityQueue: with the cluster full, a high-priority late arrival
// jumps a low-priority earlier one under the priority queue but not under
// FIFO.
func TestPriorityQueue(t *testing.T) {
	topo := topology.New(2, 2, 2)
	jobs := []JobSpec{
		{ID: 0, Coll: Allgather, Msg: 64 << 10, Ranks: 4, Arrival: 0},
		{ID: 1, Coll: Allgather, Msg: 16 << 10, Ranks: 4, Arrival: 1, Priority: 0},
		{ID: 2, Coll: Allgather, Msg: 16 << 10, Ranks: 4, Arrival: 2, Priority: 3},
	}
	order := func(queue string) (lo, hi sim.Time) {
		res, err := Run(Config{Topo: topo, Queue: queue, SkipIsolated: true}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[1].Start, res.Jobs[2].Start
	}
	fifoLo, fifoHi := order("fifo")
	if fifoLo >= fifoHi {
		t.Fatalf("fifo ran job 2 (start %v) before job 1 (start %v)", fifoHi, fifoLo)
	}
	prioLo, prioHi := order("priority")
	if prioHi >= prioLo {
		t.Fatalf("priority queue ran job 1 (start %v) before high-priority job 2 (start %v)",
			prioLo, prioHi)
	}
}

// TestValidateRejects covers the spec errors Validate must catch.
func TestValidateRejects(t *testing.T) {
	topo := topology.New(2, 2, 2)
	cases := []struct {
		name string
		cfg  Config
		jobs []JobSpec
		want string
	}{
		{"bad policy", Config{Topo: topo, Policy: "best-fit"},
			[]JobSpec{{ID: 0, Ranks: 2}}, "unknown policy"},
		{"bad queue", Config{Topo: topo, Queue: "lifo"},
			[]JobSpec{{ID: 0, Ranks: 2}}, "unknown queue"},
		{"too many ranks", Config{Topo: topo},
			[]JobSpec{{ID: 0, Ranks: 5}}, "needs 5 ranks"},
		{"dup id", Config{Topo: topo},
			[]JobSpec{{ID: 7, Ranks: 2}, {ID: 7, Ranks: 2}}, "duplicate job ID"},
		{"odd allreduce", Config{Topo: topo},
			[]JobSpec{{ID: 0, Coll: Allreduce, Ranks: 2, Msg: 12}}, "multiple of 8"},
		{"bad collective", Config{Topo: topo},
			[]JobSpec{{ID: 0, Coll: Scatter + 1, Ranks: 2}}, "unknown collective"},
		{"no jobs", Config{Topo: topo}, nil, "no jobs"},
	}
	for _, tc := range cases {
		_, err := Run(tc.cfg, tc.jobs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRefusesWhatLoweringRefuses: a reduce-scatter, alltoall,
// gather or scatter job runs a plan lowered for its rank count, and a job
// that does not lower — a message past sched's 4 GiB limit, a
// reduce-scatter ring of more steps than a schedule may have — is a
// one-line error from Validate, not a panic in the scheduler proc with a
// goroutine stack in its text.
func TestValidateRefusesWhatLoweringRefuses(t *testing.T) {
	for _, tc := range []struct {
		topo topology.Cluster
		job  JobSpec
		want string
	}{
		{topology.New(2, 2, 1), JobSpec{Coll: Alltoall, Msg: 1 << 33, Ranks: 2}, "message size 8589934592"},
		{topology.New(4, 130, 1), JobSpec{Coll: ReduceScatter, Msg: 8, Ranks: 520}, "519 steps exceed"},
	} {
		_, err := Run(Config{Topo: tc.topo, SkipIsolated: true}, []JobSpec{tc.job})
		switch {
		case err == nil:
			t.Errorf("%v job %+v: no error", tc.topo, tc.job)
		case !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "goroutine") || strings.Contains(err.Error(), "\n"):
			t.Errorf("%v job %+v: error %q, want one line naming %q", tc.topo, tc.job, err, tc.want)
		}
		if err := Validate(Config{Topo: tc.topo}, []JobSpec{tc.job}); err == nil {
			t.Errorf("%v job %+v: Validate accepts it", tc.topo, tc.job)
		}
	}
}

// TestRandomWorkload: a seeded generated stream runs byte-correct on
// every policy, and the generator itself is deterministic.
func TestRandomWorkload(t *testing.T) {
	topo := topology.New(4, 4, 2)
	jobs := RandomJobs(42, 10, topo, 500*sim.Microsecond)
	again := RandomJobs(42, 10, topo, 500*sim.Microsecond)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("workload generator not deterministic at job %d: %+v vs %+v",
				i, jobs[i], again[i])
		}
	}
	for _, policy := range Policies() {
		res, err := Run(Config{Topo: topo, Policy: policy, Payload: true, SkipIsolated: true}, jobs)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(res.Errors) > 0 {
			t.Fatalf("%s: byte-check failures: %v", policy, res.Errors)
		}
	}
}

// TestRaceStress is the -race workout: many concurrent jobs multiplexing
// one shared world through every policy and both queues.
func TestRaceStress(t *testing.T) {
	topo := topology.New(4, 4, 2)
	jobs := RandomJobs(7, 16, topo, 300*sim.Microsecond)
	for _, policy := range Policies() {
		for _, queue := range []string{"fifo", "priority"} {
			res, err := Run(Config{
				Topo: topo, Policy: policy, Queue: queue, Payload: true,
				Tracer: trace.New(), SkipIsolated: true,
			}, jobs)
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, queue, err)
			}
			if len(res.Errors) > 0 {
				t.Fatalf("%s/%s: byte-check failures: %v", policy, queue, res.Errors)
			}
		}
	}
}

// TestRailShareBounds: the occupancy gauge stays within sane bounds on a
// contended run.
func TestRailShareBounds(t *testing.T) {
	res, err := Run(burstCfg(), burst())
	if err != nil {
		t.Fatal(err)
	}
	for _, jm := range res.Jobs {
		if jm.RailShare < 0 || jm.RailShare > 4 {
			t.Fatalf("job %d rail share %.3f out of bounds", jm.Spec.ID, jm.RailShare)
		}
	}
}

// TestCheckCatchesAPlantedByte: for every byte-contract collective, the
// shared check passes a receive buffer built from compose.ExpectByte under
// the job's salt, reports exactly the block and byte of one flipped byte
// in it, and refuses the same buffer built under another job's salt.
func TestCheckCatchesAPlantedByte(t *testing.T) {
	const n, m = 4, 5
	for c := Allgather; c <= Scatter; c++ {
		if c == Allreduce {
			continue // a float64 oracle, not the byte contract
		}
		job := JobSpec{ID: 3, Coll: c, Msg: m, Ranks: n}
		_, recvLen := compose.Geometry(composeColl[c], n, m)
		build := func(salt, me int) []byte {
			b := make([]byte, recvLen)
			for k := range b {
				b[k] = compose.ExpectByte(composeColl[c], salt, n, m, me, k/m, k%m)
			}
			return b
		}
		run := func(me int, data []byte) []string {
			var got []string
			check(job, n, me, 10+me, data, func(s string) { got = append(got, s) })
			return got
		}
		for me := 0; me < n; me++ {
			data := build(job.ID, me)
			if got := run(me, data); len(got) != 0 {
				t.Fatalf("%v rank %d: correct buffer reported %v", c, me, got)
			}
			blk, i := recvLen/m-1, m-2
			data[blk*m+i] ^= 0x40
			want := fmt.Sprintf("job 3 rank %d: %v block %d byte %d = ", 10+me, c, blk, i)
			if got := run(me, data); len(got) != 1 || !strings.HasPrefix(got[0], want) {
				t.Errorf("%v rank %d: flipped block %d byte %d reported %q, want one %q...", c, me, blk, i, got, want)
			}
		}
		// Rank 0 is the root, whose blocks all carry the salt.
		if got := run(0, build(0, 0)); len(got) == 0 {
			t.Errorf("%v: a buffer built with salt 0 passed for job %d", c, job.ID)
		}
	}
}

// TestPayloadEveryCollective runs one job of each collective with real
// bytes, isolated baselines included, and requires every result to pass
// its oracle.
func TestPayloadEveryCollective(t *testing.T) {
	var jobs []JobSpec
	for c := Allgather; c <= Scatter; c++ {
		jobs = append(jobs, JobSpec{ID: int(c) + 1, Coll: c, Msg: 4 << 10, Ranks: 6})
	}
	res, err := Run(Config{Topo: topology.New(4, 4, 2), Payload: true}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("byte-check failures: %v", res.Errors)
	}
	for _, jm := range res.Jobs {
		if jm.Isolated <= 0 {
			t.Errorf("job %d (%v): no isolated baseline", jm.Spec.ID, jm.Spec.Coll)
		}
	}
}
