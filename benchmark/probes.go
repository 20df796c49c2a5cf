package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"mha/internal/compose"
	"mha/internal/core"
	"mha/internal/explore"
	"mha/internal/fabric"
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

// probeRepeats is how often a host timing is taken; the least is kept,
// which on a shared two-core runner repeats far better than the mean.
const probeRepeats = 5

// minSeconds returns the least host time of probeRepeats calls of fn.
func minSeconds(fn func()) float64 {
	best := 0.0
	for i := 0; i < probeRepeats; i++ {
		t := time.Now()
		fn()
		if d := time.Since(t).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// layerProbes measures every layer by calling only its public API. The
// values do not depend on the selected workload. A panic inside a layer
// is the harness's error: the probes use inputs the layers accept.
func layerProbes(m map[string]float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer probe: %v", r)
		}
	}()
	probeSim(m)
	probeMPI(m)
	probeCollectives(m)
	probeSched(m)
	probeSmallLayers(m)
	probeVerify(m)
	probeExplore(m)
	probeTuner(m)
	return nil
}

// probeSim drives the engine alone: 256 processes pass a token round a
// mailbox ring, each hop also taking a shared resource and sleeping.
func probeSim(m map[string]float64) {
	const procs, rounds = 256, 40
	var events int64
	var mallocs uint64
	ring := func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng := sim.NewEngine()
		link := eng.NewResource("link")
		boxes := make([]*sim.Mailbox, procs)
		for i := range boxes {
			boxes[i] = eng.NewMailbox(fmt.Sprintf("box%d", i))
		}
		any := func(interface{}) bool { return true }
		for i := 0; i < procs; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					_, end := link.Acquire(10 * sim.Nanosecond)
					boxes[(i+1)%procs].PutAt(end, r)
					boxes[i].Get(p, "token", any)
					p.Sleep(sim.Microsecond)
				}
			})
		}
		must(eng.Run())
		runtime.ReadMemStats(&after)
		events, mallocs = eng.Stats().Events, after.Mallocs-before.Mallocs
	}
	secs := minSeconds(ring)
	m["sim.events_per_s"] = float64(events) / secs
	m["sim.allocs_per_event"] = float64(mallocs) / float64(events)

	const trivial = 1024
	secs = minSeconds(func() {
		eng := sim.NewEngine()
		for i := 0; i < trivial; i++ {
			eng.Spawn("p", func(*sim.Proc) {})
		}
		must(eng.Run())
	})
	m["sim.spawn_us_per_proc"] = secs * 1e6 / trivial
}

// storm runs an Isend/Irecv/Waitall storm between node pairs of a 2x8x2
// world: rank r exchanges `window` messages with rank (r+8)%16.
func storm(buf func() mpi.Buf, window, rounds int) {
	w := mpi.New(mpi.Config{Topo: topology.New(2, 8, 2), Phantom: true})
	must(w.Run(func(p *mpi.Proc) {
		c := w.CommWorld()
		peer := (p.Rank() + 8) % 16
		payload := buf()
		for r := 0; r < rounds; r++ {
			reqs := make([]*mpi.Request, 0, 2*window)
			for i := 0; i < window; i++ {
				reqs = append(reqs, p.Irecv(c, peer, i))
			}
			for i := 0; i < window; i++ {
				reqs = append(reqs, p.Isend(c, peer, i, payload))
			}
			p.Waitall(reqs...)
		}
	}))
	must(w.VerifyTeardown())
}

func probeMPI(m map[string]float64) {
	big, small := topology.New(8, 32, 2), topology.New(2, 2, 2)
	m["mpi.new_world_us_256"] = minSeconds(func() { mpi.New(mpi.Config{Topo: big, Phantom: true}) }) * 1e6
	const worlds = 200
	m["mpi.new_world_us_4"] = minSeconds(func() {
		for i := 0; i < worlds; i++ {
			mpi.New(mpi.Config{Topo: small, Phantom: true})
		}
	}) * 1e6 / worlds

	const window, rounds, ranks = 64, 4, 16
	msgs := float64(ranks * window * rounds)
	m["mpi.msgs_per_s"] = msgs / minSeconds(func() {
		storm(func() mpi.Buf { return mpi.Phantom(64 << 10) }, window, rounds)
	})
	m["mpi.payload_mb_per_s"] = msgs * (64 << 10) / 1e6 / minSeconds(func() {
		storm(func() mpi.Buf { return mpi.NewBuf(64 << 10) }, window, rounds)
	})

	// The teardown audit of a finished 8x32x2 world (audit is idempotent).
	w := mpi.New(mpi.Config{Topo: big, Phantom: true})
	must(w.Run(func(p *mpi.Proc) {
		core.MHAAllgather(p, w, mpi.Phantom(64<<10), mpi.Phantom(64<<10*p.Size()))
	}))
	m["mpi.teardown_us"] = minSeconds(func() { must(w.VerifyTeardown()) }) * 1e6
}

// probeCollectives runs one 8x32x2 / 64 KiB allgather per profile and
// the 8 MHA points of paper-sweep for the virtual-clock sum.
func probeCollectives(m map[string]float64) {
	grid := sweepGrid(false)
	for i, key := range []string{"collectives.hpcx_ag", "collectives.mvapich2x_ag", "core.mha_ag"} {
		pt := grid[6+i] // 8x32x2, 64 KiB: HPC-X, MVAPICH2-X, MHA
		var res sweepResult
		secs := minSeconds(func() {
			var err error
			res, err = runPoint(pt, nil, 0)
			must(err)
		})
		m[key+".events"] = float64(res.events)
		m[key+".wall_ms"] = secs * 1e3
		if key == "core.mha_ag" {
			m[key+".virt_us"] = res.virt.Micros()
		}
	}
	var virt sim.Duration
	for _, pt := range grid {
		if pt.prof.Name == "MHA" {
			res, err := runPoint(pt, nil, 0)
			must(err)
			virt += res.virt
		}
	}
	m["core.virt_mha_us"] = virt.Micros()
}

func probeSched(m map[string]float64) {
	prm := netmodel.Thor()
	topo := topology.New(8, 8, 2)
	var s *sched.Schedule
	m["sched.build_us"] = minSeconds(func() {
		s = sched.TwoPhaseMHA(topo, prm, 64<<10, sched.MHAOptions{Offload: sched.AutoOffload})
	}) * 1e6
	m["sched.analyze_us"] = minSeconds(func() {
		_, err := sched.Analyze(s, prm)
		must(err)
	}) * 1e6
	secs := minSeconds(func() {
		_, err := sched.Simulate(topo, prm, s)
		must(err)
	})
	m["sched.simulate_ms"] = secs * 1e3
	m["sched.exec_transfers_per_s"] = float64(s.NumTransfers()) / secs

	var res *sched.SynthResult
	m["sched.synth_ms"] = minSeconds(func() {
		var err error
		res, err = sched.Synthesize(topology.New(4, 8, 2), prm, 64<<10, sched.SynthOptions{})
		must(err)
	}) * 1e3
	m["sched.synth_seeds"] = float64(len(res.Seeds))
}

func probeSmallLayers(m map[string]float64) {
	prm := netmodel.Thor()

	rs, ok := compose.ByName("compose-rs")
	if !ok {
		panic("compose-rs is not registered")
	}
	hier := compose.NewHierarchy(topology.New(4, 4, 2))
	m["compose.lower_us"] = minSeconds(func() {
		_, err := compose.Lower(rs.Comp, hier, 64<<10, prm)
		must(err)
	}) * 1e6

	spec := fabric.MustParse("ft:arity=2,levels=2,over=2")
	ftTopo := topology.New(16, 2, 2)
	var nw *fabric.Network
	m["fabric.build_us"] = minSeconds(func() {
		var err error
		nw, err = fabric.Build(nil, spec, ftTopo, prm)
		must(err)
	}) * 1e6
	m["fabric.route_us"] = minSeconds(func() {
		for s := 0; s < ftTopo.Nodes; s++ {
			for d := 0; d < ftTopo.Nodes; d++ {
				nw.Route(s, d)
			}
		}
	}) * 1e6

	rec := trace.New()
	w := mpi.New(mpi.Config{Topo: topology.New(4, 4, 2), Tracer: rec})
	ring, ok := verify.ByName("ring")
	if !ok {
		panic("ring is not registered")
	}
	must(w.Run(func(p *mpi.Proc) {
		send, recv := mpi.NewBuf(4096), mpi.NewBuf(4096*p.Size())
		ring.Run(p, w, send, recv)
	}))
	m["trace.hash_us"] = minSeconds(func() { rec.Hash() }) * 1e6

	const predictions = 1000
	pmTopo := topology.New(8, 32, 2)
	sink := sim.Duration(0)
	m["perfmodel.predict_ns"] = minSeconds(func() {
		for i := 0; i < predictions; i++ {
			sink += perfmodel.New(prm, pmTopo).MHAInterRing(64 << 10)
		}
	}) * 1e9 / predictions
	if sink == 0 {
		panic("perfmodel predicted nothing")
	}
}

// probeVerify times scenario generation and checking on the first 40
// scenarios of the fixed campaign, and runs the known-failing ones.
func probeVerify(m map[string]float64) {
	const n = 40
	known := knownFailingSet()
	m["verify.generate_us"] = minSeconds(func() { generatePool(n, nil, 0) }) * 1e6 / n
	var checks []float64
	stillFailing := 0
	for _, sc := range generatePool(campaignSize, nil, 0) {
		switch {
		case known[sc.Spec()]:
			if len(verify.Check(sc)) > 0 {
				stillFailing++
			}
		case len(checks) < n:
			t := time.Now()
			if vs := verify.Check(sc); len(vs) > 0 {
				panic(fmt.Sprintf("verify probe: %s: %v", sc.Spec(), vs[0]))
			}
			checks = append(checks, time.Since(t).Seconds())
		}
	}
	m["verify.check_ms_p50"] = median(checks) * 1e3
	m["verify.known_failing"] = float64(stillFailing)
}

// probeExplore exhausts the ring variant (144 replays) on 2x2x2.
func probeExplore(m map[string]float64) {
	var rep *explore.Report
	secs := minSeconds(func() {
		var err error
		rep, err = explore.Run(exploreOptions("ring", 0))
		must(err)
	})
	m["explore.steps_per_s"] = float64(rep.Steps) / secs
	m["explore.execs"] = float64(rep.Executions)
	m["explore.replay_us"] = secs * 1e6 / float64(rep.Executions)
	m["explore.sleep_skips"] = float64(rep.Placements[0].SleepSkips)
}

// probeTuner takes the warm request path apart: parsing and keying,
// the cache lookup, the handler without a socket, and over loopback.
func probeTuner(m map[string]float64) {
	ts := &tunerServe{}
	must(ts.setUp(config{seed: 1, smoke: true})) // the 18 small keys, served cold
	defer ts.tearDown()
	bodies, n := ts.bodies, float64(len(ts.bodies))
	queries := make([]tuner.Query, len(bodies))
	m["tuner.cold_p50_ms"] = median(ts.coldSecs) * 1e3

	m["tuner.parse_canon_us"] = minSeconds(func() {
		for i, b := range bodies {
			q, err := tuner.ParseQuery(b)
			must(err)
			_, _, err = q.Canonical()
			must(err)
			queries[i] = q
		}
	}) * 1e6 / n

	const rounds = 200
	m["tuner.decide_warm_ns"] = minSeconds(func() {
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				res, err := ts.svc.Decide(q)
				if err != nil || !res.Hit {
					panic(fmt.Sprintf("warm Decide: hit=%v err=%v", res.Hit, err))
				}
			}
		}
	}) * 1e9 / (rounds * n)

	handler := tuner.Handler(ts.svc)
	m["tuner.handler_us"] = minSeconds(func() {
		for r := 0; r < rounds; r++ {
			for _, b := range bodies {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(b)))
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("handler: status %d", rec.Code))
				}
			}
		}
	}) * 1e6 / (rounds * n)

	const requests = 5000
	lat := make([]float64, 0, requests)
	for i := 0; i < requests; i++ {
		k := i % len(bodies)
		t := time.Now()
		status, cache, data, err := ts.post(bodies[k])
		lat = append(lat, time.Since(t).Seconds())
		if why := checkAnswer(status, cache, "hit", data, ts.cold[k], err); why != "" {
			panic("warm request: " + why)
		}
	}
	m["tuner.http_p50_us"] = median(lat) * 1e6
	m["tuner.http_p99_us"] = percentile(lat, 99) * 1e6
	m["tuner.http_overhead_us"] = m["tuner.http_p50_us"] - m["tuner.handler_us"]

	var dec tuner.Decision
	must(json.Unmarshal(ts.cold[0], &dec))
	m["tuner.encode_us"] = minSeconds(func() {
		_, err := dec.Encode()
		must(err)
	}) * 1e6

	st := ts.svc.Stats()
	m["tuner.synth_count"] = float64(ts.svc.SynthCount())
	m["tuner.hit_ratio"] = st.HitRate
}
