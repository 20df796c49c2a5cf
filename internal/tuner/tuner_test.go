package tuner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mha/internal/netmodel"
	"mha/internal/sched"
)

// testService is a service with room for capacity decisions.
func testService(capacity int) *Service {
	return New(Config{Capacity: capacity})
}

func TestDecideColdThenWarm(t *testing.T) {
	s := testService(8)
	q := Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096}

	cold, err := s.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit {
		t.Error("first Decide reported a cache hit")
	}
	if cold.Decision.Source != "synth" {
		t.Errorf("source %q, want synth", cold.Decision.Source)
	}
	if cold.Decision.CostUS <= 0 {
		t.Errorf("non-positive cost: %v", cold.Decision.CostUS)
	}

	warm, err := s.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit {
		t.Error("second Decide missed the cache")
	}
	if !bytes.Equal(cold.Raw, warm.Raw) {
		t.Error("warm response bytes differ from the cold synthesis")
	}

	// Every served decision re-verifies: key, canonical form, schedule
	// invariants.
	if _, err := DecodeDecision(warm.Raw, s.Params()); err != nil {
		t.Errorf("served decision fails re-verification: %v", err)
	}

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Synths != 1 || st.Entries != 1 {
		t.Errorf("stats hits=%d misses=%d synths=%d entries=%d, want 1/1/1/1",
			st.Hits, st.Misses, st.Synths, st.Entries)
	}
	if st.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", st.HitRate)
	}
}

// TestDifferentialCacheVsFresh is the acceptance differential: a cache
// hit serves bytes identical to what a cold synthesis of the same key
// produces in a brand-new service.
func TestDifferentialCacheVsFresh(t *testing.T) {
	queries := []Query{
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096},
		{Nodes: 2, PPN: 4, HCAs: 2, Msg: 65536, Health: []float64{1, 0.5}},
		{Nodes: 1, PPN: 4, HCAs: 2, Msg: 16384},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 65536, Layout: "cyclic"},
	}
	cached := testService(8)
	for _, q := range queries {
		if _, err := cached.Decide(q); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
	}
	for _, q := range queries {
		hit, err := cached.Decide(q)
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if !hit.Hit {
			t.Fatalf("%v: expected a cache hit", q)
		}
		fresh := testService(8)
		cold, err := fresh.Decide(q)
		if err != nil {
			t.Fatalf("%v fresh: %v", q, err)
		}
		if !bytes.Equal(hit.Raw, cold.Raw) {
			t.Errorf("%v: cache-hit bytes differ from a fresh cold synthesis", q)
		}
		if _, err := DecodeDecision(hit.Raw, cached.Params()); err != nil {
			t.Errorf("%v: served decision fails invariants: %v", q, err)
		}
	}
}

// TestSingleflightBurst fires one identical query from many goroutines
// at once: exactly one synthesis runs, every caller gets the same bytes.
func TestSingleflightBurst(t *testing.T) {
	s := testService(8)
	q := Query{Nodes: 2, PPN: 4, HCAs: 2, Msg: 32768}
	const G = 32

	var (
		wg      sync.WaitGroup
		release = make(chan struct{})
		raws    = make([][]byte, G)
		errs    = make([]error, G)
	)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-release
			res, err := s.Decide(q)
			if err != nil {
				errs[g] = err
				return
			}
			raws[g] = res.Raw
		}(g)
	}
	close(release)
	wg.Wait()

	for g := 0; g < G; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(raws[g], raws[0]) {
			t.Fatalf("goroutine %d got different bytes", g)
		}
	}
	if n := s.SynthCount(); n != 1 {
		t.Errorf("burst of %d identical queries ran %d syntheses, want 1", G, n)
	}
	st := s.Stats()
	if got := st.Hits + st.Misses + st.Shared; got != G {
		t.Errorf("hits+misses+shared = %d, want %d", got, G)
	}
}

// TestRaceStress overlaps hit, miss, and shared-flight traffic over a
// pool of distinct keys. Capacity exceeds the key count during the
// concurrent phase, so singleflight must yield exactly one synthesis per
// distinct key — the synth counter is the assertion. (Run under -race in
// CI.)
func TestRaceStress(t *testing.T) {
	const (
		keys   = 6
		G      = 12
		rounds = 4
	)
	s := testService(keys + 2)
	pool := make([]Query, keys)
	for i := range pool {
		pool[i] = Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 1024 << i}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Different goroutines walk the pool from different offsets
				// so hits, misses, and in-flight joins interleave.
				for i := 0; i < keys; i++ {
					q := pool[(g+i)%keys]
					res, err := s.Decide(q)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: %v", g, err)
						return
					}
					if _, wantKey, _ := q.Canonical(); res.Decision.Key != wantKey {
						errCh <- fmt.Errorf("worker %d: wrong decision for %v", g, q)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := s.SynthCount(); n != keys {
		t.Errorf("%d distinct keys synthesized %d times, want exactly %d", keys, n, keys)
	}
	st := s.Stats()
	if st.Entries != keys {
		t.Errorf("cache holds %d entries, want %d", st.Entries, keys)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions: %d", st.Evictions)
	}
}

// TestConcurrentEviction hammers a capacity-2 cache with 4 keys: every
// response must still verify, and the cache must end at capacity. (The
// synth count is necessarily > distinct keys here — eviction forces
// re-synthesis — so the exact-count assertion lives in TestRaceStress.)
func TestConcurrentEviction(t *testing.T) {
	s := testService(2)
	pool := []Query{
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 1024},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 2048},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 8192},
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := s.Decide(pool[(g+i)%len(pool)]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 2 {
		t.Errorf("cache holds %d entries, want capacity 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under 4 keys x capacity 2")
	}
	if n := s.SynthCount(); n < 4 {
		t.Errorf("synth count %d < 4 distinct keys", n)
	}
}

// TestDeterminism replays one query sequence through two fresh services:
// the LRU eviction order and the persisted cache must match byte for
// byte.
func TestDeterminism(t *testing.T) {
	seq := []Query{
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 1024},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 2048},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096},
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 1024}, // re-hit: promotes 1024
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 8192}, // evicts 2048
		{Nodes: 2, PPN: 2, HCAs: 2, Msg: 16384},
	}
	run := func() ([]string, []byte, Stats) {
		s := testService(3)
		for _, q := range seq {
			if _, err := s.Decide(q); err != nil {
				t.Fatalf("%v: %v", q, err)
			}
		}
		var buf bytes.Buffer
		if err := s.SaveCache(&buf); err != nil {
			t.Fatal(err)
		}
		return s.CachedKeys(), buf.Bytes(), s.Stats()
	}

	keys1, file1, st1 := run()
	keys2, file2, _ := run()
	if !reflect.DeepEqual(keys1, keys2) {
		t.Errorf("LRU order differs across runs:\n%v\n%v", keys1, keys2)
	}
	if !bytes.Equal(file1, file2) {
		t.Error("persisted cache differs across runs")
	}
	if len(keys1) != 3 {
		t.Fatalf("cache holds %d keys, want 3", len(keys1))
	}
	if st1.Evictions != 2 {
		t.Errorf("evictions %d, want 2", st1.Evictions)
	}
	// The promoted 1024-byte query must have outlived the eviction of
	// 2048 and 4096.
	_, k1024, _ := seq[0].Canonical()
	_, k2048, _ := seq[1].Canonical()
	found := false
	for _, k := range keys1 {
		if k == k2048 {
			t.Error("2048-byte entry survived; LRU order wrong")
		}
		if k == k1024 {
			found = true
		}
	}
	if !found {
		t.Error("promoted 1024-byte entry was evicted; LRU order wrong")
	}

	// Round trip: load the file into a fresh service, recency order and
	// re-saved bytes must be identical, and warm queries must serve the
	// same bytes as the original synthesis. The served entry carries
	// "predicted_us", as a file saved when decisions recorded the
	// closed-form estimate does: it restores, and neither the re-saved
	// file nor the served body keeps it.
	_, kLast, _ := seq[len(seq)-1].Canonical()
	old := string(file1)
	at := strings.Index(old, `{"key":"`+kLast+`","query"`)
	if at < 0 {
		t.Fatalf("no decision for key %s in:\n%s", kLast, old)
	}
	at += strings.Index(old[at:], `"source":`)
	old = old[:at] + `"predicted_us":123.456,` + old[at:]
	s := testService(3)
	n, err := s.LoadCache(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("loaded %d entries, want 3", n)
	}
	if got := s.CachedKeys(); !reflect.DeepEqual(got, keys1) {
		t.Errorf("loaded LRU order differs:\n%v\n%v", got, keys1)
	}
	var buf bytes.Buffer
	if err := s.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), file1) {
		t.Error("save-load-save round trip not byte-stable")
	}
	res, err := s.Decide(seq[len(seq)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Error("restored cache missed a persisted key")
	}
	fresh := testService(3)
	cold, err := fresh.Decide(seq[len(seq)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Raw, cold.Raw) {
		t.Error("restored-cache response differs from a fresh synthesis")
	}
	if st := s.Stats(); st.WarmStart != 3 {
		t.Errorf("warm-start count %d, want 3", st.WarmStart)
	}
}

func TestLoadCacheRejectsCorrupt(t *testing.T) {
	s := testService(4)
	if _, err := s.Decide(Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	v1 := objectForm(good, 4)
	if !strings.Contains(v1, `"src":`) {
		t.Fatalf("no transfer tuple found to rewrite in:\n%s", good)
	}

	// Each case names a text its error must carry, or "" for any error.
	cases := map[string]struct{ text, why string }{
		"not json":      {"what cache", ""},
		"wrong version": {strings.Replace(good, `"version":3`, `"version":99`, 1), "version 99"},
		"tampered key":  {strings.Replace(good, `"key":"`, `"key":"0000`, 1), ""},
		// Changing the message size inside the decision breaks both the
		// key derivation and the schedule match. The query precedes the
		// schedule, whose header carries the same "msg":4096.
		"tampered query": {strings.Replace(good, `"msg":4096`, `"msg":8192`, 1), ""},
		// A structured fabric is no query the service answers.
		"fat-tree query": {strings.Replace(good, `"msg":4096`, `"fabric":"ft:arity=2,levels=2,over=2:1","msg":4096`, 1), "flat fabric"},
		// A file saved before schedules travelled as tuples is refused by
		// its version, and its object transfers would not be misread as
		// tuples under the current one either. So is one saved before
		// runs had tuples of their own.
		"version-1 file with object transfers":       {strings.Replace(v1, `"version":3`, `"version":1`, 1), "version 1, want 3"},
		"object transfers under the current version": {v1, "decision schedule: sched: bad JSON"},
		"version-2 file": {strings.Replace(good, `"version":3`, `"version":2`, 1), "version 2, want 3"},
		// A cost the analyzer no longer gives the schedule, as a file
		// saved under an older pricing of degraded rails carries.
		"stale cost": {regexp.MustCompile(`"cost_us":[^,]+`).ReplaceAllString(good, `"cost_us":1`), "is stale"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			fresh := testService(4)
			_, err := fresh.LoadCache(strings.NewReader(tc.text))
			if err == nil {
				t.Fatal("corrupt cache file loaded cleanly")
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("refused for another reason (want %q): %v", tc.why, err)
			}
		})
	}

	// A file cut short, as a crash mid-save leaves it, is refused whole:
	// the fresh service starts cold. Only the trailing newline is optional.
	for name, cut := range map[string]int{"cut to 0 bytes": 0, "cut to 1 byte": 1, "cut in half": len(good) / 2, "cut 2 bytes short": len(good) - 2} {
		t.Run(name, func(t *testing.T) {
			fresh := testService(4)
			n, err := fresh.LoadCache(strings.NewReader(good[:cut]))
			if err == nil || !strings.Contains(err.Error(), "bad cache file") {
				t.Fatalf("loaded %d entries, err %v; want a bad cache file", n, err)
			}
			if got := fresh.Stats().Entries; n != 0 || got != 0 {
				t.Fatalf("a refused file left %d entries (%d reported)", got, n)
			}
		})
	}
	t.Run("no trailing newline", func(t *testing.T) {
		fresh := testService(4)
		if n, err := fresh.LoadCache(strings.NewReader(strings.TrimSuffix(good, "\n"))); err != nil || n != 1 {
			t.Fatalf("loaded %d entries, err %v; want the 1 entry", n, err)
		}
	})
}

// objectForm rewrites every integer tuple of a saved cache file whose
// schedules have n ranks as what a version-1 file carried in its place:
// a copy or transfer object, a run as one object per transfer. A
// transfer's off and len appear only for a partial window, its via by
// name unless auto, its rail and red only when set.
func objectForm(file string, n int) string {
	return regexp.MustCompile(`\[-?\d+(,-?\d+)*\]`).ReplaceAllStringFunc(file, func(tup string) string {
		var v []int
		if err := json.Unmarshal([]byte(tup), &v); err != nil {
			panic(err)
		}
		if len(v) == 3 {
			return fmt.Sprintf(`{"rank":%d,"first":%d,"count":%d}`, v[0], v[1], v[2])
		}
		k, d := 1, []int{0, 0, 0}
		if len(v) == 8 || len(v) == 13 {
			k, d, v = v[0], v[len(v)-3:], v[1:len(v)-3]
		}
		objs := make([]string, k)
		for j := range objs {
			obj := fmt.Sprintf(`{"src":%d,"dst":%d,"first":%d,"count":%d`,
				(v[0]+j*d[0])%n, (v[1]+j*d[1])%n, (v[2]+j*d[2])%n, v[3])
			if len(v) == 9 {
				obj += fmt.Sprintf(`,"off":%d,"len":%d`, v[4], v[5])
				if v[6] != 0 {
					obj += fmt.Sprintf(`,"via":%q`, sched.Via(v[6]))
				}
				if v[7] != 0 {
					obj += fmt.Sprintf(`,"rail":%d`, v[7])
				}
				if v[8] != 0 {
					obj += `,"red":true`
				}
			}
			objs[j] = obj + "}"
		}
		return strings.Join(objs, ",")
	})
}

func TestWarmStartAndLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start synthesis is seconds of work; skipped in -short")
	}
	s := New(Config{Capacity: 64})
	n, err := WarmStart(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(PaperQueries()); n != want {
		t.Fatalf("warm-started %d entries, want %d", n, want)
	}
	if st := s.Stats(); st.WarmStart != n || st.Entries != n {
		t.Fatalf("stats warm=%d entries=%d, want %d", st.WarmStart, st.Entries, n)
	}

	// With the cache warm, the load generator should see only hits.
	rep, err := RunLoad(s, LoadOptions{Workers: 4, Requests: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != int64(rep.Requests) {
		t.Errorf("warm load saw %d hits out of %d requests", rep.Hits, rep.Requests)
	}
	if rep.PerSec <= 0 {
		t.Errorf("non-positive throughput %v", rep.PerSec)
	}
	t.Logf("warm load: %v", rep)
}

// TestPanickingSynthesisReleasesItsKey: a synthesis that panics must not
// leave its key in the flight table (every later request for it would
// block on a done channel nobody closes). The owner and every waiter get
// the panic as an error, it is counted, and the next request runs a
// fresh synthesis that can succeed.
func TestPanickingSynthesisReleasesItsKey(t *testing.T) {
	s := testService(8)
	q := Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096}
	const waiters = 4

	// The poisoned synthesis holds its flight open until every waiter has
	// joined it, then panics.
	real := s.search
	s.search = func(cq Query, key string) (*Decision, []byte, error) {
		for s.Stats().Shared < waiters {
			runtime.Gosched()
		}
		panic("poisoned seed")
	}
	errs := make(chan error, waiters+1)
	for g := 0; g < waiters+1; g++ {
		go func() {
			_, err := s.Decide(q)
			errs <- err
		}()
	}
	for g := 0; g < waiters+1; g++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "panicked: poisoned seed") {
			t.Errorf("caller %d: err = %v, want the synthesis panic", g, err)
		}
	}
	st := s.Stats()
	if st.Inflight != 0 || st.Synths != 1 || st.Errors != 1 || st.Shared != waiters || st.Entries != 0 {
		t.Errorf("after the panic: inflight=%d synths=%d errors=%d shared=%d entries=%d, want 0/1/1/%d/0",
			st.Inflight, st.Synths, st.Errors, st.Shared, st.Entries, waiters)
	}

	s.search = real
	res, err := s.Decide(q)
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if res.Hit {
		t.Error("request after the panic was served from the cache")
	}
	if st := s.Stats(); st.Synths != 2 || st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("after the retry: synths=%d entries=%d inflight=%d, want 2/1/0", st.Synths, st.Entries, st.Inflight)
	}
}

// TestSeedPanicIsAnError drives the panic sched.Synthesize raises by
// design — a seed lowering that fails its own analysis, here because the
// cost model is broken — through Decide: an error, not a crash or a
// wedged key, and the same key is served once the model is repaired.
func TestSeedPanicIsAnError(t *testing.T) {
	prm := *netmodel.Thor()
	good := prm
	prm.BWHCA = 0
	if prm.Validate() == nil {
		t.Fatal("zero HCA bandwidth passes Params.Validate; pick another way to break the model")
	}
	s := New(Config{Params: &prm, Capacity: 8})
	q := Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 4096}
	for i := 0; i < 2; i++ {
		if _, err := s.Decide(q); err == nil || !strings.Contains(err.Error(), "panicked: sched: seed ring invalid") {
			t.Fatalf("request %d under a broken model: err = %v, want the seed panic", i, err)
		}
	}
	prm = good
	if _, err := s.Decide(q); err != nil {
		t.Fatalf("request under the repaired model: %v", err)
	}
	if st := s.Stats(); st.Synths != 3 || st.Errors != 2 || st.Inflight != 0 || st.Entries != 1 {
		t.Errorf("synths=%d errors=%d inflight=%d entries=%d, want 3/2/0/1", st.Synths, st.Errors, st.Inflight, st.Entries)
	}
}
