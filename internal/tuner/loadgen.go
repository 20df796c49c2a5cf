package tuner

import (
	"fmt"
	"sync"
	"time"
)

// The synthetic load generator: drives Service.Decide directly (no HTTP
// overhead) with a fixed query mix from concurrent workers. It backs
// `mhatuned -bench` — the claim under test being that a warm cache
// sustains ~10^5+ decisions/sec, i.e. a cached decision costs a mutex, a
// map lookup, and a list splice.

// LoadOptions shapes one load run.
type LoadOptions struct {
	// Workers is the number of concurrent client goroutines (default 4).
	Workers int
	// Requests is the total number of Decide calls (default 100000).
	Requests int
	// Queries is the mix, dealt round-robin across the run; empty means
	// PaperQueries().
	Queries []Query
}

// LoadReport summarizes one load run.
type LoadReport struct {
	Requests int
	Hits     int64
	Elapsed  time.Duration
	// PerSec is Requests / Elapsed.
	PerSec float64
}

func (r LoadReport) String() string {
	return fmt.Sprintf("%d requests (%d hits) in %v: %.0f decisions/sec",
		r.Requests, r.Hits, r.Elapsed.Round(time.Millisecond), r.PerSec)
}

// RunLoad fires opt.Requests queries at s from opt.Workers goroutines.
// Worker w serves requests w, w+Workers, w+2*Workers, ... of the
// round-robin sequence, so the mix is deterministic regardless of
// scheduling.
func RunLoad(s *Service, opt LoadOptions) (LoadReport, error) {
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.Requests <= 0 {
		opt.Requests = 100000
	}
	queries := opt.Queries
	if len(queries) == 0 {
		queries = PaperQueries()
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		hits     int64
		firstErr error
	)
	start := time.Now()
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local int64
			for i := w; i < opt.Requests; i += opt.Workers {
				res, err := s.Decide(queries[i%len(queries)])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if res.Hit {
					local++
				}
			}
			mu.Lock()
			hits += local
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return LoadReport{}, firstErr
	}
	rep := LoadReport{Requests: opt.Requests, Hits: hits, Elapsed: elapsed}
	if elapsed > 0 {
		rep.PerSec = float64(opt.Requests) / elapsed.Seconds()
	}
	return rep, nil
}
