// Package tuner is schedule synthesis as a service: the engine of the
// mhatuned daemon. It answers "best allgather schedule for this machine
// state" queries — (nodes, ppn, rails, layout, message size, rail
// health) — by composing the repo's existing pieces into a serving path:
//
//   - the query is canonicalized and hashed into a cache key
//     (query.go): layout defaulted, health quantized to 1/64ths, so
//     equivalent machine states share one key;
//   - an LRU cache of past decisions answers warm queries in a map
//     lookup plus a list splice — the ~10^5+ decisions/sec path the
//     benchmark's tuner.decide_warm_ns probe measures (cache.go);
//   - a cold miss runs the internal/sched beam synthesizer, health-
//     aware, with the alpha-beta analyzer pricing candidates and an
//     analytic margin pruning the simulation pass when the model is
//     unambiguous (tuner.go, internal/sched);
//   - concurrent misses on one key are deduplicated: exactly one
//     synthesis runs, everyone waits for it (singleflight, below);
//   - the cache persists to JSON and fully re-verifies on load, and a
//     warm-start table (the paper's Thor configurations, warmstart.go)
//     preloads it.
//
// The HTTP surface (server.go) exposes /v1/schedule, /v1/stats and
// /healthz; loadgen.go drives it with synthetic traffic for the
// benchmark. Everything is stdlib-only and deterministic where it
// matters: the same query sequence yields byte-identical decisions,
// cache files, and eviction orders.
package tuner

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mha/internal/netmodel"
	"mha/internal/sched"
)

// Config configures a Service.
type Config struct {
	// Params is the cost-model calibration; nil means netmodel.Thor().
	Params *netmodel.Params
	// Capacity is the LRU entry limit (default 512).
	Capacity int
}

// DefaultPruneMargin is the service's analytic-pruning margin: the
// simulation pass is skipped when the analytic winner leads every other
// finalist by more than 25 %.
const DefaultPruneMargin = 0.25

// Result is one Decide outcome.
type Result struct {
	// Decision is the served decision.
	Decision *Decision
	// Raw is the decision's canonical wire form — for the same key it is
	// byte-identical whether the decision was just synthesized, read
	// from the cache, or restored from a persisted cache file.
	Raw []byte
	// Hit reports whether the answer came from the cache.
	Hit bool
}

// call is one in-flight synthesis other callers of the same key wait on.
type call struct {
	done chan struct{}
	dec  *Decision
	raw  []byte
	err  error
}

// Service is the autotuner: cache + singleflight + synthesizer.
type Service struct {
	prm *netmodel.Params
	// search is synthesize; tests substitute a synthesis that blocks or
	// panics on cue.
	search func(cq Query, key string) (*Decision, []byte, error)

	mu        sync.Mutex
	cache     *lruCache
	flight    map[string]*call
	hist      *histogram
	hits      int64
	misses    int64
	shared    int64
	errors    int64
	synths    int64
	warmStart int
}

// New builds a Service.
func New(cfg Config) *Service {
	if cfg.Params == nil {
		cfg.Params = netmodel.Thor()
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	s := &Service{
		prm:    cfg.Params,
		cache:  newLRU(cfg.Capacity),
		flight: make(map[string]*call),
		hist:   newHistogram(),
	}
	s.search = s.synthesize
	return s
}

// Params returns the service's cost-model calibration.
func (s *Service) Params() *netmodel.Params { return s.prm }

// Decide answers one query: canonicalize, consult the cache, and on a
// miss run (or join) the one synthesis for that key.
func (s *Service) Decide(q Query) (Result, error) {
	cq, key, err := q.Canonical()
	if err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
		return Result{}, err
	}

	s.mu.Lock()
	if e := s.cache.get(key); e != nil {
		s.hits++
		s.mu.Unlock()
		return Result{Decision: e.dec, Raw: e.raw, Hit: true}, nil
	}
	if c, ok := s.flight[key]; ok {
		s.shared++
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return Result{}, c.err
		}
		return Result{Decision: c.dec, Raw: c.raw}, nil
	}
	c := &call{done: make(chan struct{})}
	s.flight[key] = c
	s.misses++
	s.mu.Unlock()

	s.fly(c, cq, key)
	if c.err != nil {
		return Result{}, c.err
	}
	return Result{Decision: c.dec, Raw: c.raw}, nil
}

// fly runs the one synthesis of an in-flight call and settles it: the
// outcome lands in c, the key leaves the flight table and the waiters on
// c.done wake — however the synthesis ends. sched.Synthesize panics by
// design on a seed that fails its own analysis; a panic becomes this
// call's error (and its waiters'), so the key is synthesized afresh on
// the next request instead of blocking every later one.
func (s *Service) fly(c *call, cq Query, key string) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			c.dec, c.raw = nil, nil
			c.err = fmt.Errorf("tuner: synthesis for %v panicked: %v", cq, r)
		}
		lat := time.Since(start)
		s.mu.Lock()
		delete(s.flight, key)
		s.synths++
		if c.err == nil {
			s.cache.put(&cacheEntry{key: key, dec: c.dec, raw: c.raw})
			s.hist.observe(lat)
		} else {
			s.errors++
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.dec, c.raw, c.err = s.search(cq, key)
}

// synthesize runs the health-aware schedule search for one canonical
// query and wraps the winner as a Decision.
func (s *Service) synthesize(cq Query, key string) (*Decision, []byte, error) {
	res, err := sched.Synthesize(cq.Cluster(), s.prm, cq.Msg, sched.SynthOptions{Health: cq.Health, PruneMargin: DefaultPruneMargin})
	if err != nil {
		return nil, nil, fmt.Errorf("tuner: synthesis for %v: %v", cq, err)
	}
	// Served schedules always pass the analyzer's invariants; Synthesize
	// guarantees this structurally, the re-check makes it a contract.
	if _, err := sched.AnalyzeHealth(res.Best.Sched, s.prm, cq.Health); err != nil {
		return nil, nil, fmt.Errorf("tuner: synthesized schedule for %v fails invariants: %v", cq, err)
	}
	dec := &Decision{
		Key:        key,
		Query:      cq,
		Name:       res.Best.Name,
		CostUS:     res.Best.Cost.Micros(),
		MakespanUS: res.Best.Makespan.Micros(),
		Pruned:     res.Pruned,
		Source:     "synth",
		Schedule:   res.Best.Sched.AppendJSON(nil),
	}
	raw, err := dec.Encode()
	if err != nil {
		return nil, nil, err
	}
	return dec, raw, nil
}

// Stats snapshots the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Hits:         s.hits,
		Misses:       s.misses,
		Shared:       s.shared,
		Errors:       s.errors,
		Synths:       s.synths,
		Inflight:     len(s.flight),
		Entries:      s.cache.len(),
		Capacity:     s.cache.cap,
		Evictions:    s.cache.evictions,
		WarmStart:    s.warmStart,
		SynthTotalUS: s.hist.totalUS,
	}
	for i, le := range histBuckets {
		st.SynthLatency = append(st.SynthLatency, HistogramBucket{LeUS: le, Count: s.hist.counts[i]})
	}
	st.SynthLatency = append(st.SynthLatency, HistogramBucket{LeUS: 0, Count: s.hist.counts[len(histBuckets)]})
	if total := s.hits + s.misses + s.shared; total > 0 {
		st.HitRate = float64(s.hits) / float64(total)
	}
	return st
}

// SynthCount reports how many syntheses have run — the counter the
// singleflight race-stress test asserts on.
func (s *Service) SynthCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synths
}

// SaveCache writes the cache in the persistence format.
func (s *Service) SaveCache(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.save(w)
}

// LoadCache restores a persisted cache, re-verifying every entry, and
// counts the restored entries as warm-start entries.
func (s *Service) LoadCache(r io.Reader) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.cache.load(r, s.prm)
	s.warmStart += n
	return n, err
}
