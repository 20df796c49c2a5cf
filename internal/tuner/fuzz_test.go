package tuner

import (
	"testing"
)

// FuzzParseQuery holds ParseQuery to its contract: arbitrary request
// bodies — malformed JSON, absurd shapes, hostile numbers — either parse
// into a query that re-validates and canonicalizes cleanly, or return an
// error. Never a panic: this function fronts a network daemon.
func FuzzParseQuery(f *testing.F) {
	f.Add([]byte(`{"nodes":2,"ppn":8,"hcas":2,"msg":65536}`))
	f.Add([]byte(`{"nodes":4,"ppn":8,"hcas":2,"layout":"cyclic","msg":1048576,"health":[1,0.5]}`))
	f.Add([]byte(`{"nodes":1,"ppn":1,"hcas":1,"msg":1}`))
	f.Add([]byte(`{"nodes":-1,"ppn":1e9,"hcas":999,"msg":0}`))
	f.Add([]byte(`{"nodes":2,"ppn":2,"hcas":2,"msg":64,"health":[null,"x"]}`))
	f.Add([]byte(`{"nodes":1000000000,"ppn":1000000000,"hcas":16,"msg":67108864}`))
	// Only the flat fabric parses; the structured specs must be refused.
	f.Add([]byte(`{"nodes":4,"ppn":2,"hcas":2,"msg":4096,"fabric":"ft:arity=2,levels=2,over=2:1"}`))
	f.Add([]byte(`{"nodes":4,"ppn":2,"hcas":2,"msg":4096,"fabric":"dfly:groups=2,routers=2,nodes=1"}`))
	f.Add([]byte(`{"nodes":4,"ppn":2,"hcas":2,"msg":4096,"fabric":"flat"}`))
	f.Add([]byte(`{"nodes":4,"ppn":2,"hcas":2,"msg":4096,"fabric":"ft:arity=0"}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ParseQuery(data)
		if err != nil {
			return
		}
		// An accepted query must be internally consistent: validation is
		// idempotent and canonicalization succeeds and is stable.
		if err := q.validate(); err != nil {
			t.Fatalf("ParseQuery accepted %q but validate rejects: %v", data, err)
		}
		if q.Fabric != "" && q.Fabric != "flat" {
			t.Fatalf("ParseQuery accepted fabric %q", q.Fabric)
		}
		cq, key, err := q.Canonical()
		if err != nil {
			t.Fatalf("ParseQuery accepted %q but Canonical rejects: %v", data, err)
		}
		cq2, key2, err := cq.Canonical()
		if err != nil {
			t.Fatalf("canonical form of %q fails Canonical: %v", data, err)
		}
		if key != key2 || !cq.equal(cq2) {
			t.Fatalf("Canonical not idempotent for %q: %v/%s vs %v/%s", data, cq, key, cq2, key2)
		}
	})
}
