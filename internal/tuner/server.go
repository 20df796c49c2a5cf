package tuner

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The HTTP surface. Three endpoints, all JSON:
//
//	POST /v1/schedule  body: Query JSON    -> Decision JSON
//	GET  /v1/stats                         -> Stats JSON
//	GET  /healthz                          -> "ok"
//
// /v1/schedule answers with the decision's canonical bytes and an
// X-Mhatuned-Cache header ("hit" or "miss") so clients — and the CI
// smoke test — can tell a warm answer from a cold one. Bodies are
// byte-identical either way, and carry their Content-Length: without
// it, every body larger than net/http's 2 KB write buffer goes out
// chunked.

// cacheHeader is the response header reporting hit/miss.
const cacheHeader = "X-Mhatuned-Cache"

// Handler serves the autotuner API for s.
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		st := s.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	mux.HandleFunc("/v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "use POST with a query body", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		q, err := ParseQuery(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := s.Decide(q)
		if err != nil {
			// The query was well-formed, so a failure here is a synthesis
			// failure — a server-side condition, not a client error.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(res.Raw)))
		if res.Hit {
			w.Header().Set(cacheHeader, "hit")
		} else {
			w.Header().Set(cacheHeader, "miss")
		}
		w.Write(res.Raw)
	})
	return mux
}
