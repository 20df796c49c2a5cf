package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"mha/internal/sched"
	"mha/internal/tuner"
)

const (
	// warmRequests is one pass: closed loop, one keep-alive client.
	warmRequests = 50000
	// tracedWarmRequests bounds the span file of a traced pass.
	tracedWarmRequests = 20000
	// crossCheckKeys is how many keys the real daemon is asked for.
	crossCheckKeys = 3
)

// tunerQueries is the fixed 55-key set: every small shape at three
// sizes, healthy and with rail 1 at half rate, plus one 128-rank shape.
func tunerQueries(smoke bool) []tuner.Query {
	var qs []tuner.Query
	for _, nodes := range []int{2, 4, 8} {
		for _, ppn := range []int{2, 4, 8} {
			for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
				for _, health := range [][]float64{nil, {1, 0.5}} {
					if smoke && nodes*ppn > 8 {
						continue
					}
					qs = append(qs, tuner.Query{Nodes: nodes, PPN: ppn, HCAs: 2, Msg: msg, Health: health})
				}
			}
		}
	}
	if !smoke {
		qs = append(qs, tuner.Query{Nodes: 8, PPN: 16, HCAs: 2, Msg: 64 << 10})
	}
	return qs
}

// tunerServe is the request path users see: a daemon lifetime per pass.
// Set-up brings the in-process daemon up and serves the cold key set
// (every answer a miss: sched.Synthesize); the pass is the warm phase
// (every answer a hit: net/http, ParseQuery, Canonical, SHA-256, LRU).
// An operation is one warm HTTP request.
type tunerServe struct {
	smoke  bool
	bodies [][]byte // request bodies, in the seed's order
	cold   [][]byte // response body of each key's cold miss

	svc    *tuner.Service
	srv    *http.Server
	served chan error
	client *http.Client
	url    string

	// Cold-phase outcome of the current lifetime, folded into the pass.
	coldSecs     []float64
	coldFailures []string
}

func (*tunerServe) name() string { return "tuner-serve" }

// post sends one query and returns the status, cache header and body.
func (ts *tunerServe) post(body []byte) (int, string, []byte, error) {
	resp, err := ts.client.Post(ts.url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Mhatuned-Cache"), data, err
}

// checkAnswer returns why a response is not the wanted one, or "".
func checkAnswer(status int, cache, wantCache string, body, wantBody []byte, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", status, firstLine(string(body)))
	case cache != wantCache:
		return fmt.Sprintf("cache header %q, want %q", cache, wantCache)
	case wantBody != nil && !bytes.Equal(body, wantBody):
		return "body differs from the key's cold body"
	}
	return ""
}

func (ts *tunerServe) setUp(cfg config) error {
	ts.smoke = cfg.smoke
	ts.bodies = ts.bodies[:0]
	for _, q := range tunerQueries(cfg.smoke) {
		b, err := json.Marshal(q)
		if err != nil {
			return err
		}
		ts.bodies = append(ts.bodies, b)
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(ts.bodies), func(i, j int) {
		ts.bodies[i], ts.bodies[j] = ts.bodies[j], ts.bodies[i]
	})

	ts.svc = tuner.New(tuner.Config{Capacity: 512}) // the daemon's default
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ts.srv = &http.Server{Handler: tuner.Handler(ts.svc)}
	ts.served = make(chan error, 1)
	go func() { ts.served <- ts.srv.Serve(ln) }()
	ts.url = "http://" + ln.Addr().String()
	ts.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	resp, err := ts.client.Get(ts.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}

	// Cold phase: every key once, sequentially.
	ts.cold = make([][]byte, len(ts.bodies))
	ts.coldSecs, ts.coldFailures = nil, nil
	for i, body := range ts.bodies {
		t := time.Now()
		status, cache, data, err := ts.post(body)
		ts.coldSecs = append(ts.coldSecs, time.Since(t).Seconds())
		if why := checkAnswer(status, cache, "miss", data, nil, err); why != "" {
			ts.coldFailures = append(ts.coldFailures, fmt.Sprintf("cold %s: %s", body, why))
		}
		ts.cold[i] = data
	}
	return nil
}

func (ts *tunerServe) pass(tr *tracer) passResult {
	if tr != nil {
		return ts.socketFreePass(tr)
	}
	res := passResult{counts: map[string]float64{}, timings: map[string]float64{}}
	res.attempted = len(ts.bodies)
	res.failures = append(res.failures, ts.coldFailures...)
	n := warmRequests
	if ts.smoke {
		n = warmRequests / 20
	}
	res.opSeconds = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		k := i % len(ts.bodies)
		t := time.Now()
		status, cache, data, err := ts.post(ts.bodies[k])
		res.opSeconds = append(res.opSeconds, time.Since(t).Seconds())
		res.attempted++
		if why := checkAnswer(status, cache, "hit", data, ts.cold[k], err); why != "" {
			res.failures = append(res.failures, fmt.Sprintf("warm %s: %s", ts.bodies[k], why))
		}
	}
	st := ts.svc.Stats()
	res.signature = fmt.Sprintf("synths=%d hits=%d misses=%d bodies=%s", ts.svc.SynthCount(), st.Hits, st.Misses, hashBodies(ts.bodies, ts.cold))
	res.counts["tuner.synth_count"] = float64(ts.svc.SynthCount())
	res.counts["tuner.hit_ratio"] = st.HitRate
	res.timings["tuner.cold_sum_s"] = sumOf(ts.coldSecs)
	res.timings["tuner.cold_p50_ms"] = median(ts.coldSecs) * 1e3
	res.timings["tuner.warm_rps"] = float64(n) / sumOf(res.opSeconds)
	res.timings["tuner.warm_p99_us"] = percentile(res.opSeconds, 99) * 1e6
	return res
}

func (ts *tunerServe) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ts.srv.Shutdown(ctx)
	<-ts.served
	ts.client.CloseIdleConnections()
}

// socketFreePass is the traced variant of a lifetime, without net/http so
// that spans cover the repository's own calls: each request is
// ParseQuery, Canonical, Decide; each cold key is followed by a replay
// of the synthesis stages on the same shape.
func (ts *tunerServe) socketFreePass(tr *tracer) passResult {
	res := passResult{counts: map[string]float64{}}
	svc := tuner.New(tuner.Config{Capacity: 512})
	request := func(body []byte, wantHit bool) {
		op := tr.begin(0, 0, "bench", harnessSpan)
		t := time.Now()
		var q tuner.Query
		var err error
		tr.call(op, op, "tuner", "tuner.ParseQuery", func() { q, err = tuner.ParseQuery(body) })
		if err == nil {
			tr.call(op, op, "tuner", "tuner.Query.Canonical", func() { _, _, err = q.Canonical() })
		}
		var out tuner.Result
		if err == nil {
			tr.call(op, op, "tuner", "tuner.Service.Decide", func() { out, err = svc.Decide(q) })
		}
		res.opSeconds = append(res.opSeconds, time.Since(t).Seconds())
		tr.end(op, nil)
		res.attempted++
		if err != nil || out.Hit != wantHit {
			res.failures = append(res.failures, fmt.Sprintf("%s: hit=%v err=%v", body, out.Hit, err))
		}
	}
	for _, body := range ts.bodies {
		request(body, false)
		if err := replayStages(svc, body, tr); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("replay %s: %v", body, err))
		}
	}
	n := tracedWarmRequests
	if ts.smoke {
		n /= 20
	}
	for i := 0; i < n; i++ {
		request(ts.bodies[i%len(ts.bodies)], true)
	}
	res.signature = fmt.Sprintf("synths=%d", svc.SynthCount())
	return res
}

// replayStages runs, one public call at a time, the stages a cold Decide
// goes through for the query in body.
func replayStages(svc *tuner.Service, body []byte, tr *tracer) error {
	q, err := tuner.ParseQuery(body)
	if err != nil {
		return err
	}
	cq, key, err := q.Canonical()
	if err != nil {
		return err
	}
	topo, prm := cq.Cluster(), svc.Params()
	op := tr.begin(0, 0, "bench", harnessSpan)
	defer tr.end(op, nil)
	var s *sched.Schedule
	tr.call(op, op, "sched", "sched.TwoPhaseMHA", func() {
		s = sched.TwoPhaseMHA(topo, prm, cq.Msg, sched.MHAOptions{Offload: sched.AutoOffload})
	})
	tr.call(op, op, "sched", "sched.Analyze", func() { _, err = sched.AnalyzeHealth(s, prm, cq.Health) })
	if err != nil {
		return err
	}
	tr.call(op, op, "sched", "sched.Simulate", func() { _, err = sched.SimulateHealth(topo, prm, s, cq.Health) })
	if err != nil {
		return err
	}
	var best *sched.SynthResult
	tr.call(op, op, "sched", "sched.Synthesize", func() {
		best, err = sched.Synthesize(topo, prm, cq.Msg, sched.SynthOptions{Health: cq.Health, PruneMargin: tuner.DefaultPruneMargin})
	})
	if err != nil {
		return err
	}
	js, err := best.Best.Sched.JSON()
	if err != nil {
		return err
	}
	dec := &tuner.Decision{Key: key, Query: cq, Name: best.Best.Name, Source: "synth", Schedule: js}
	tr.call(op, op, "tuner", "tuner.Decision.Encode", func() { _, err = dec.Encode() })
	return err
}

// finish cross-checks the in-process loop against the daemon the
// repository ships: a pre-built cmd/mhatuned beside this binary must
// answer a few of the keys miss-then-hit with the same bytes, and leave
// cleanly on SIGINT. Without the binary (a bare `go run`) it is skipped.
func (ts *tunerServe) finish() []string {
	exe, err := os.Executable()
	if err != nil {
		return []string{err.Error()}
	}
	bin := filepath.Join(filepath.Dir(exe), "mhatuned")
	if _, err := os.Stat(bin); err != nil || ts.smoke {
		fmt.Println("  real-binary cross-check: skipped (smoke run, or no mhatuned beside the benchmark binary; run.sh builds one)")
		return nil
	}
	if err := ts.crossCheck(bin); err != nil {
		return []string{"real-binary cross-check: " + err.Error()}
	}
	fmt.Printf("  real-binary cross-check: ok (%d keys miss->hit, bodies identical to in-process, clean bye)\n", crossCheckKeys)
	return nil
}

func (ts *tunerServe) crossCheck(bin string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel() // kills the daemon if it outlives the check
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	lines := bufio.NewScanner(stderr)
	url := ""
	for url == "" && lines.Scan() {
		if _, after, ok := strings.Cut(lines.Text(), "listening on "); ok {
			url = strings.TrimSpace(after)
		}
	}
	check := func() error {
		if url == "" {
			return fmt.Errorf("daemon never printed its address")
		}
		real := &tunerServe{client: &http.Client{}, url: url}
		defer real.client.CloseIdleConnections()
		for _, want := range []string{"miss", "hit"} {
			for k := 0; k < crossCheckKeys; k++ {
				status, cache, data, err := real.post(ts.bodies[k])
				if why := checkAnswer(status, cache, want, data, ts.cold[k], err); why != "" {
					return fmt.Errorf("%s: %s", ts.bodies[k], why)
				}
			}
		}
		return nil
	}
	checkErr := check()
	cmd.Process.Signal(os.Interrupt)
	bye := false
	for lines.Scan() {
		bye = bye || strings.Contains(lines.Text(), "bye")
	}
	waitErr := cmd.Wait()
	switch {
	case checkErr != nil:
		return checkErr
	case waitErr != nil:
		return fmt.Errorf("daemon exit: %v", waitErr)
	case !bye:
		return fmt.Errorf("daemon left without its bye line")
	}
	return nil
}
