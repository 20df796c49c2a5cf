package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mha/internal/collectives"
	"mha/internal/core"
	"mha/internal/mpi"
	"mha/internal/sim"
	"mha/internal/topology"
)

// expectedSweep pins the modelled latency (virtual ns) of the 14
// comparator-profile points. MHA points are reported, not pinned, so a
// deliberate algorithm improvement shows in core.virt_mha_us, not as a
// failure.
//
//go:embed expected/paper-sweep.json
var expectedSweep []byte

// sweepPoint is one phantom-payload collective at paper scale.
type sweepPoint struct {
	topo      topology.Cluster
	msg       int
	prof      collectives.Profile
	allreduce bool
}

func (pt sweepPoint) id() string {
	kind := "allgather"
	if pt.allreduce {
		kind = "allreduce"
	}
	return fmt.Sprintf("%s/%dx%dx%d/%d/%s", kind, pt.topo.Nodes, pt.topo.PPN, pt.topo.HCAs, pt.msg, pt.prof.Name)
}

// sweepResult is what one point produced: both clocks and the counts.
type sweepResult struct {
	virt   sim.Duration
	events int64
	procs  int
}

// sweepGrid is the fixed 22-point job: what regenerating Fig. 12-15
// costs. Smoke scale shrinks every cluster four-fold.
func sweepGrid(smoke bool) []sweepPoint {
	shape := func(nodes int) topology.Cluster {
		if smoke {
			return topology.New(nodes/4, 8, 2)
		}
		return topology.New(nodes, 32, 2)
	}
	profs := []collectives.Profile{collectives.HPCX(), collectives.MVAPICH2X(), core.Profile()}
	var grid []sweepPoint
	for _, msg := range []int{1 << 10, 8 << 10, 64 << 10, 256 << 10} {
		for _, prof := range profs {
			grid = append(grid, sweepPoint{topo: shape(8), msg: msg, prof: prof})
		}
	}
	for _, msg := range []int{8 << 10, 64 << 10} {
		for _, prof := range profs {
			grid = append(grid, sweepPoint{topo: shape(16), msg: msg, prof: prof})
		}
	}
	grid = append(grid, sweepPoint{topo: shape(32), msg: 64 << 10, prof: profs[2]}) // the paper's 1024 ranks
	for _, prof := range profs {
		grid = append(grid, sweepPoint{topo: shape(8), msg: 1 << 20, prof: prof, allreduce: true})
	}
	return grid
}

// runPoint is the operation: build a world, run the collective on every
// rank, audit the teardown. A panic anywhere is the point's failure.
func runPoint(pt sweepPoint, tr *tracer, op int) (res sweepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	var w *mpi.World
	tr.call(op, op, "mpi", "mpi.New", func() {
		w = mpi.New(mpi.Config{Topo: pt.topo, Phantom: true})
	})
	var worst sim.Time
	run := tr.begin(op, op, "mpi", "mpi.World.Run")
	err = w.Run(func(p *mpi.Proc) {
		if pt.allreduce {
			pt.prof.Allreduce(p, w, mpi.Phantom(pt.msg), collectives.SumF64())
		} else {
			pt.prof.Allgather(p, w, mpi.Phantom(pt.msg), mpi.Phantom(pt.msg*p.Size()))
		}
		// Ranks run one at a time under the engine, so this is ordered.
		if p.Now() > worst {
			worst = p.Now()
		}
	})
	st := w.Engine().Stats()
	res = sweepResult{virt: sim.Duration(worst), events: st.Events, procs: st.Processes}
	tr.end(run, map[string]int64{"events": st.Events, "procs": int64(st.Processes), "virt_ns": int64(worst)})
	if err != nil {
		return res, err
	}
	tr.call(op, op, "mpi", "mpi.World.VerifyTeardown", func() { err = w.VerifyTeardown() })
	return res, err
}

// paperSweep is the workload the engine fast path must move: sim does
// almost all the work, with no scheduler, tracer or payload bytes.
type paperSweep struct {
	grid   []sweepPoint
	pinned map[string]int64
}

func (*paperSweep) name() string { return "paper-sweep" }

func (ps *paperSweep) setUp(cfg config) error {
	ps.pinned = map[string]int64{}
	if !cfg.smoke {
		if err := json.Unmarshal(expectedSweep, &ps.pinned); err != nil {
			return fmt.Errorf("expected/paper-sweep.json: %w", err)
		}
	}
	ps.grid = sweepGrid(cfg.smoke)
	// Warm-up operations: the 8x32x2 / 64 KiB point under HPC-X and MHA.
	for _, i := range []int{6, 8} {
		if _, err := runPoint(ps.grid[i], nil, 0); err != nil {
			return err
		}
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(ps.grid), func(i, j int) {
		ps.grid[i], ps.grid[j] = ps.grid[j], ps.grid[i]
	})
	return nil
}

func (ps *paperSweep) pass(tr *tracer) passResult {
	res := passResult{counts: map[string]float64{}}
	sigs := make([]string, 0, len(ps.grid))
	var events, virtMHA int64
	for _, pt := range ps.grid {
		op := tr.begin(0, 0, "bench", harnessSpan)
		t := time.Now()
		r, err := runPoint(pt, tr, op)
		res.opSeconds = append(res.opSeconds, time.Since(t).Seconds())
		tr.end(op, nil)
		res.attempted++
		id := pt.id()
		if want, ok := ps.pinned[id]; err == nil && ok && int64(r.virt) != want {
			err = fmt.Errorf("modelled latency %d ns, pinned %d ns", int64(r.virt), want)
		}
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", id, firstLine(err.Error())))
		}
		sigs = append(sigs, fmt.Sprintf("%s=%d/%d", id, int64(r.virt), r.events))
		events += r.events
		if pt.prof.Name == "MHA" {
			virtMHA += int64(r.virt)
		}
	}
	res.signature = sortedJoin(sigs)
	res.counts["sim.events"] = float64(events)
	res.counts["virt_mha_us"] = sim.Duration(virtMHA).Micros()
	return res
}

func (*paperSweep) tearDown()        {}
func (*paperSweep) finish() []string { return nil }

// firstLine cuts a multi-line diagnostic (panics carry stacks) to one line.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
