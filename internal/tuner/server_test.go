package tuner

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Capacity: 8})
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestServerScheduleMissThenHit(t *testing.T) {
	_, ts := testServer(t)
	query := `{"nodes":4,"ppn":8,"hcas":2,"msg":4096}`

	post := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	cold, coldBody := post()
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %d %s", cold.StatusCode, coldBody)
	}
	if h := cold.Header.Get(cacheHeader); h != "miss" {
		t.Errorf("cold %s = %q, want miss", cacheHeader, h)
	}
	warm, warmBody := post()
	if h := warm.Header.Get(cacheHeader); h != "hit" {
		t.Errorf("warm %s = %q, want hit", cacheHeader, h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("warm body differs from cold body")
	}
	// Both answers carry their length, so neither goes out chunked.
	for _, r := range []struct {
		name string
		resp *http.Response
		body []byte
	}{{"cold", cold, coldBody}, {"warm", warm, warmBody}} {
		if r.resp.ContentLength != int64(len(r.body)) || len(r.resp.TransferEncoding) > 0 {
			t.Errorf("%s: Content-Length %d and Transfer-Encoding %q for a %d-byte body, want the length and no encoding",
				r.name, r.resp.ContentLength, r.resp.TransferEncoding, len(r.body))
		}
	}
	if len(coldBody) <= 2048 {
		t.Errorf("a %d-byte body fits net/http's write buffer, which sets its length anyway: the check above proves nothing", len(coldBody))
	}
	var d Decision
	if err := json.Unmarshal(warmBody, &d); err != nil {
		t.Fatalf("response is not a decision: %v", err)
	}
	if d.Source != "synth" || d.Key == "" {
		t.Errorf("decision source=%q key=%q", d.Source, d.Key)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad json", http.MethodPost, "/v1/schedule", "nope", http.StatusBadRequest},
		{"bad shape", http.MethodPost, "/v1/schedule", `{"nodes":0,"ppn":1,"hcas":1,"msg":1}`, http.StatusBadRequest},
		{"oversized", http.MethodPost, "/v1/schedule", `{"nodes":2,"ppn":2,"hcas":2,"msg":64}` + strings.Repeat(" ", maxQueryBytes), http.StatusBadRequest},
		{"get schedule", http.MethodGet, "/v1/schedule", "", http.StatusMethodNotAllowed},
		{"post stats", http.MethodPost, "/v1/stats", "{}", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

func TestServerStats(t *testing.T) {
	_, ts := testServer(t)
	query := `{"nodes":2,"ppn":2,"hcas":2,"msg":4096}`
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 2 || st.Misses != 1 || st.Synths != 1 || st.Entries != 1 {
		t.Errorf("stats hits=%d misses=%d synths=%d entries=%d, want 2/1/1/1",
			st.Hits, st.Misses, st.Synths, st.Entries)
	}
	if len(st.SynthLatency) != len(histBuckets)+1 {
		t.Errorf("latency histogram has %d buckets, want %d", len(st.SynthLatency), len(histBuckets)+1)
	}
	var total int64
	for _, b := range st.SynthLatency {
		total += b.Count
	}
	if total != st.Synths {
		t.Errorf("histogram totals %d observations for %d synths", total, st.Synths)
	}
}
