// Command mhatuned is the caching autotuner daemon: schedule synthesis
// as a service. It answers "best allgather schedule for this machine
// state" queries over HTTP by composing the schedule IR's beam
// synthesizer, the alpha-beta analyzer, and the closed-form performance
// model, memoizing every decision in an LRU cache keyed on the
// canonicalized (topology, ppn, rails, layout, message size, rail
// health) tuple.
//
// Usage:
//
//	mhatuned                                   # serve on 127.0.0.1:7117
//	mhatuned -addr 127.0.0.1:9000 -warmstart   # pre-synthesize the paper's shapes
//	mhatuned -cache /var/tmp/mhatuned.json     # persist decisions across restarts
//	mhatuned -bench                            # synthetic-load benchmark, no server
//
// Endpoints:
//
//	POST /v1/schedule   query JSON -> decision JSON (X-Mhatuned-Cache: hit|miss)
//	GET  /v1/stats      serving statistics
//	GET  /healthz       liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mha/internal/tuner"
)

// The server's timeouts, so a slow or silent client cannot hold a
// connection open. A query body is at most 64 KiB, so reading one takes
// well under the read timeouts. The write timeout runs from the end of the
// request's headers to the end of the response, so it also covers a
// cold miss's synthesis: about 0.1 s for a 128-rank key and longer up to
// the 256-rank limit. If it runs out, the synthesized decision is still
// cached for the next request.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7117", "listen address")
		cacheFile = flag.String("cache", "", "cache persistence file: loaded at startup, saved on shutdown")
		capacity  = flag.Int("capacity", 512, "maximum cached decisions")
		warmstart = flag.Bool("warmstart", false, "pre-synthesize the paper's Thor configurations at startup")
		bench     = flag.Bool("bench", false, "run the synthetic-load benchmark instead of serving")
		workers   = flag.Int("bench-workers", 4, "benchmark client goroutines")
		requests  = flag.Int("bench-requests", 200000, "benchmark request count")
	)
	flag.Parse()

	svc := tuner.New(tuner.Config{Capacity: *capacity})

	if *cacheFile != "" {
		if f, err := os.Open(*cacheFile); err == nil {
			n, lerr := svc.LoadCache(f)
			f.Close()
			if lerr != nil {
				// A bad cache file means start cold, not crash: the cache is
				// an optimization, and every entry re-verifies on load.
				fmt.Fprintf(os.Stderr, "mhatuned: ignoring cache %s: %v\n", *cacheFile, lerr)
			} else {
				fmt.Fprintf(os.Stderr, "mhatuned: restored %d cached decisions from %s\n", n, *cacheFile)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "mhatuned:", err)
			os.Exit(1)
		}
	}

	if *warmstart {
		start := time.Now()
		n, err := tuner.WarmStart(svc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhatuned: warm start:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mhatuned: warm-started %d shapes in %v\n", n, time.Since(start).Round(time.Millisecond))
	}

	if *bench {
		runBench(svc, *workers, *requests)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhatuned:", err)
		os.Exit(1)
	}
	// The listener is live before this line prints: scripts (and the CI
	// smoke test) wait for it as the readiness signal.
	fmt.Fprintf(os.Stderr, "mhatuned: listening on http://%s\n", ln.Addr())

	srv := &http.Server{
		Handler:           tuner.Handler(svc),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "mhatuned:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mhatuned: shutdown:", err)
	}

	if *cacheFile != "" {
		if err := saveCache(svc, *cacheFile); err != nil {
			fmt.Fprintln(os.Stderr, "mhatuned:", err)
			os.Exit(1)
		}
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "mhatuned: saved %d cached decisions to %s\n", st.Entries, *cacheFile)
	}
	fmt.Fprintln(os.Stderr, "mhatuned: bye")
}

// saveCache writes atomically: temp file in the same directory, then
// rename, so a crash mid-save never corrupts the previous cache.
func saveCache(svc *tuner.Service, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := svc.SaveCache(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// runBench warms the cache with the paper shapes (unless -warmstart or
// -cache already did) and measures warm-path throughput.
func runBench(svc *tuner.Service, workers, requests int) {
	queries := tuner.PaperQueries()
	fmt.Fprintf(os.Stderr, "mhatuned: bench: warming %d shapes...\n", len(queries))
	for _, q := range queries {
		if _, err := svc.Decide(q); err != nil {
			fmt.Fprintln(os.Stderr, "mhatuned: bench:", err)
			os.Exit(1)
		}
	}
	rep, err := tuner.RunLoad(svc, tuner.LoadOptions{Workers: workers, Requests: requests, Queries: queries})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhatuned: bench:", err)
		os.Exit(1)
	}
	fmt.Printf("mhatuned bench: %v\n", rep)
	st := svc.Stats()
	fmt.Printf("cache: %d entries, %d synths, hit rate %.3f\n", st.Entries, st.Synths, st.HitRate)
}
