package tuner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"mha/internal/sched"
	"mha/internal/topology"
)

// Service limits. The daemon answers queries the synthesizer can turn
// around in interactive time; the analyzer itself reaches 4096 ranks, but
// a cold synthesis over thousands of ranks is a batch job, not a query.
const (
	// MaxQueryRanks caps nodes*ppn per query.
	MaxQueryRanks = 256
	// MaxQueryHCAs caps the rails per node.
	MaxQueryHCAs = 16
	// MaxQueryMsg caps the per-rank contribution (64 MiB).
	MaxQueryMsg = 1 << 26
	// maxQueryBytes caps the wire form of one request.
	maxQueryBytes = 1 << 16
)

// healthQuantum is the rail-health resolution of the cache key: fractions
// are rounded to 1/64ths before hashing, so monitoring noise (a rail at
// 0.501 vs 0.502 of line rate) does not shatter the cache into distinct
// keys. A fraction that quantizes to zero is treated as down.
const healthQuantum = 64

// Query asks the autotuner for the best allgather schedule on one
// machine state: the cluster shape, the per-rank message size, and the
// steady rail-health vector (omitted = all rails healthy).
type Query struct {
	Nodes  int    `json:"nodes"`
	PPN    int    `json:"ppn"`
	HCAs   int    `json:"hcas"`
	Layout string `json:"layout,omitempty"` // "block" (default) or "cyclic"
	// Fabric must be "" or "flat": the synthesizer prices a flat,
	// non-blocking fabric only, so a tapered one is refused rather than
	// served a flat-fabric decision.
	Fabric string    `json:"fabric,omitempty"`
	Msg    int       `json:"msg"`
	Health []float64 `json:"health,omitempty"` // per rail, 0 down .. 1 healthy
}

// ParseQuery decodes one request body. It is strict — unknown fields,
// trailing garbage, and out-of-range values are errors, never panics —
// because it fronts a network service (FuzzParseQuery holds it to that).
func ParseQuery(data []byte) (Query, error) {
	if len(data) > maxQueryBytes {
		return Query{}, fmt.Errorf("tuner: query of %d bytes exceeds the %d-byte limit", len(data), maxQueryBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q Query
	if err := dec.Decode(&q); err != nil {
		return Query{}, fmt.Errorf("tuner: bad query: %v", err)
	}
	if dec.More() {
		return Query{}, fmt.Errorf("tuner: trailing data after query")
	}
	if err := q.validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// validate bounds every field without normalizing anything.
func (q Query) validate() error {
	switch {
	case q.Nodes < 1 || q.PPN < 1:
		return fmt.Errorf("tuner: need nodes >= 1 and ppn >= 1, have %d x %d", q.Nodes, q.PPN)
	case q.Nodes > MaxQueryRanks || q.PPN > MaxQueryRanks || q.Nodes*q.PPN > MaxQueryRanks:
		return fmt.Errorf("tuner: %d x %d ranks exceed the %d-rank query limit", q.Nodes, q.PPN, MaxQueryRanks)
	case q.HCAs < 1 || q.HCAs > MaxQueryHCAs:
		return fmt.Errorf("tuner: hcas %d outside [1,%d]", q.HCAs, MaxQueryHCAs)
	case q.Msg < 1 || q.Msg > MaxQueryMsg:
		return fmt.Errorf("tuner: msg %d outside [1,%d]", q.Msg, MaxQueryMsg)
	}
	if q.Layout != "" && q.Layout != "block" && q.Layout != "cyclic" {
		return fmt.Errorf("tuner: unknown layout %q", q.Layout)
	}
	if q.Fabric != "" && q.Fabric != "flat" {
		return fmt.Errorf("tuner: fabric %q: the synthesizer prices a flat fabric only", q.Fabric)
	}
	if q.Health != nil {
		if len(q.Health) != q.HCAs {
			return fmt.Errorf("tuner: health vector has %d entries for %d rails", len(q.Health), q.HCAs)
		}
		alive := false
		for r, h := range q.Health {
			if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 || h > 1 {
				return fmt.Errorf("tuner: rail %d health %v outside [0,1]", r, h)
			}
			// Liveness at key resolution: a rail below half a quantum is
			// down once quantized.
			if math.Round(h*healthQuantum) > 0 {
				alive = true
			}
		}
		if !alive {
			return fmt.Errorf("tuner: health vector leaves no rail alive")
		}
	}
	return nil
}

// Canonical normalizes the query into the form the cache is keyed on —
// explicit layout, no fabric (validate admits only the flat one), health
// quantized to 1/64ths and dropped entirely when
// fully healthy — and derives the key: the hex SHA-256 of a versioned
// rendering of every normalized field. Two queries with the same
// canonical form are, to the synthesizer, the same machine state.
//
//lint:pure the cache key must depend on the query fields alone
func (q Query) Canonical() (Query, string, error) {
	if err := q.validate(); err != nil {
		return Query{}, "", err
	}
	cq := q
	if cq.Layout == "" {
		cq.Layout = "block"
	}
	cq.Fabric = ""
	if cq.Health != nil {
		quant := make([]float64, len(cq.Health))
		healthy := true
		for r, h := range cq.Health {
			quant[r] = math.Round(h*healthQuantum) / healthQuantum
			if quant[r] != 1 {
				healthy = false
			}
		}
		if healthy {
			cq.Health = nil
		} else {
			cq.Health = quant
		}
	}
	if err := sched.ValidHealth(cq.Health, cq.HCAs); err != nil {
		return Query{}, "", fmt.Errorf("tuner: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mhatuned/v1|nodes=%d|ppn=%d|hcas=%d|layout=%s|msg=%d|health=",
		cq.Nodes, cq.PPN, cq.HCAs, cq.Layout, cq.Msg)
	for r, h := range cq.Health {
		if r > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(math.Round(h*healthQuantum)))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return cq, hex.EncodeToString(sum[:]), nil
}

// Cluster is the topology the canonical query describes.
func (q Query) Cluster() topology.Cluster {
	layout := topology.Block
	if q.Layout == "cyclic" {
		layout = topology.Cyclic
	}
	return topology.Cluster{Nodes: q.Nodes, PPN: q.PPN, HCAs: q.HCAs, Layout: layout}
}

// equal compares two queries field-by-field (health as values).
func (q Query) equal(o Query) bool {
	if q.Nodes != o.Nodes || q.PPN != o.PPN || q.HCAs != o.HCAs ||
		q.Layout != o.Layout || q.Fabric != o.Fabric ||
		q.Msg != o.Msg || len(q.Health) != len(o.Health) {
		return false
	}
	for r, h := range q.Health {
		if o.Health[r] != h {
			return false
		}
	}
	return true
}

func (q Query) String() string {
	s := fmt.Sprintf("%dx%dx%d/%s msg=%d", q.Nodes, q.PPN, q.HCAs, q.Layout, q.Msg)
	if q.Health != nil {
		s += fmt.Sprintf(" health=%v", q.Health)
	}
	return s
}
