package tuner

import (
	"strings"
	"testing"
)

func TestParseQueryRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"empty", "", "bad query"},
		{"not json", "hello", "bad query"},
		{"unknown field", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"bogus":1}`, "bad query"},
		{"trailing", `{"nodes":2,"ppn":2,"hcas":2,"msg":64}{}`, "trailing"},
		{"zero nodes", `{"nodes":0,"ppn":2,"hcas":2,"msg":64}`, "nodes"},
		{"negative ppn", `{"nodes":2,"ppn":-1,"hcas":2,"msg":64}`, "ppn"},
		{"too many ranks", `{"nodes":64,"ppn":64,"hcas":2,"msg":64}`, "rank"},
		{"absurd nodes", `{"nodes":1000000000,"ppn":1000000000,"hcas":2,"msg":64}`, "rank"},
		{"zero hcas", `{"nodes":2,"ppn":2,"hcas":0,"msg":64}`, "hcas"},
		{"too many hcas", `{"nodes":2,"ppn":2,"hcas":17,"msg":64}`, "hcas"},
		{"zero msg", `{"nodes":2,"ppn":2,"hcas":2,"msg":0}`, "msg"},
		{"huge msg", `{"nodes":2,"ppn":2,"hcas":2,"msg":999999999999}`, "msg"},
		{"bad layout", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"layout":"spiral"}`, "layout"},
		{"bad fabric", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"fabric":"torus:dims=3"}`, "fabric"},
		{"fabric misfit", `{"nodes":6,"ppn":2,"hcas":2,"msg":64,"fabric":"dfly:groups=2,routers=2,nodes=1"}`, "fabric"},
		{"tapered fabric", `{"nodes":4,"ppn":2,"hcas":2,"msg":64,"fabric":"ft:arity=2,levels=2,over=2:1"}`, "flat fabric"},
		{"health length", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"health":[1]}`, "health"},
		{"health range", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"health":[1,2]}`, "health"},
		{"health negative", `{"nodes":2,"ppn":2,"hcas":2,"msg":64,"health":[-0.5,1]}`, "health"},
		{"oversized body", `{"nodes":2,"ppn":2,"hcas":2,"msg":64}` + strings.Repeat(" ", maxQueryBytes), "limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseQuery([]byte(tc.body)); err == nil {
				t.Fatalf("ParseQuery(%q) accepted", tc.body)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseQuery(%q): error %q does not mention %q", tc.body, err, tc.want)
			}
		})
	}
}

func TestParseQueryAccepts(t *testing.T) {
	q, err := ParseQuery([]byte(`{"nodes":4,"ppn":8,"hcas":2,"msg":65536,"layout":"block","health":[1,0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := Query{Nodes: 4, PPN: 8, HCAs: 2, Layout: "block", Msg: 65536, Health: []float64{1, 0.5}}
	if !q.equal(want) {
		t.Fatalf("got %v, want %v", q, want)
	}
}

func TestCanonicalKey(t *testing.T) {
	key := func(q Query) string {
		t.Helper()
		_, k, err := q.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%v): %v", q, err)
		}
		return k
	}
	base := Query{Nodes: 4, PPN: 8, HCAs: 2, Msg: 65536}

	// Layout defaults to block: explicit and implicit agree.
	explicit := base
	explicit.Layout = "block"
	if key(base) != key(explicit) {
		t.Error("implicit block layout keyed differently from explicit")
	}

	// A fully healthy vector collapses to the nil form.
	healthy := base
	healthy.Health = []float64{1, 1}
	if key(base) != key(healthy) {
		t.Error("all-healthy vector keyed differently from nil health")
	}

	// Health quantizes to 1/64ths: monitoring noise shares a key...
	a, b := base, base
	a.Health = []float64{1, 0.501}
	b.Health = []float64{1, 0.502}
	if key(a) != key(b) {
		t.Error("0.501 vs 0.502 health shattered the key")
	}
	// ...but a real difference does not.
	c := base
	c.Health = []float64{1, 0.25}
	if key(a) == key(c) {
		t.Error("0.5 vs 0.25 health collapsed into one key")
	}

	// An explicit flat fabric is the no-fabric form, key bytes and all;
	// a tapered one has no key, because the synthesizer cannot price it.
	flat := base
	flat.Fabric = "flat"
	if key(base) != key(flat) {
		t.Error("explicit flat fabric keyed differently from no fabric")
	}
	if cq, _, _ := flat.Canonical(); cq.Fabric != "" {
		t.Errorf("canonical form kept fabric %q", cq.Fabric)
	}
	ft := base
	ft.Fabric = "ft:arity=2,levels=2,over=2:1"
	if _, _, err := ft.Canonical(); err == nil {
		t.Error("Canonical keyed a 2:1 fat-tree, which would serve it a flat-fabric decision")
	}

	// Every dimension distinguishes keys.
	for name, vary := range map[string]Query{
		"nodes":  {Nodes: 8, PPN: 8, HCAs: 2, Msg: 65536},
		"ppn":    {Nodes: 4, PPN: 4, HCAs: 2, Msg: 65536},
		"hcas":   {Nodes: 4, PPN: 8, HCAs: 1, Msg: 65536},
		"layout": {Nodes: 4, PPN: 8, HCAs: 2, Layout: "cyclic", Msg: 65536},
		"msg":    {Nodes: 4, PPN: 8, HCAs: 2, Msg: 32768},
	} {
		if key(base) == key(vary) {
			t.Errorf("varying %s did not change the key", name)
		}
	}
}

func TestCanonicalRejectsAllRailsDown(t *testing.T) {
	q := Query{Nodes: 2, PPN: 2, HCAs: 2, Msg: 64, Health: []float64{0, 0.001}}
	// 0.001 quantizes to 0: every rail down, nothing can carry traffic.
	if _, _, err := q.Canonical(); err == nil {
		t.Fatal("Canonical accepted a health vector with every rail down")
	}
}
