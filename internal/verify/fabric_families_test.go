package verify

import (
	"strings"
	"testing"
)

// The fabric scenario families put the locality-aware allgathers on
// non-flat fabrics: every variant runs on an oversubscribed fat-tree
// ("fabric-ft-2:1") and a dragonfly ("fabric-dfly"), each in three
// environments — homogeneous block layout, heterogeneous cyclic layout
// (mixed 1/2-HCA nodes with asymmetric rails), and a rail fault. The
// campaign's full instrumentation applies: byte oracle, teardown audit,
// clock monotonicity and the determinism cross-check.

// localityVariants are the locality-aware allgathers under family test.
var localityVariants = []string{
	"locality-p2p", "locality-ring", "locality-bruck", "hier-bruck-ml",
}

// fabricFamilies returns the named fabric scenario families as replayable
// spec lines (parse with ParseSpec, judge with Check).
func fabricFamilies() map[string][]string {
	fams := map[string][]string{}
	envs := []string{
		// Homogeneous, block layout, oversubscribed links in the hot path.
		"nodes=4 ppn=2 hcas=2 msg=4096",
		// Mixed 1/2-HCA nodes, asymmetric rails, cyclic layout, odd bytes.
		"nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 nodehcas=2/1/2/1 railbw=1/0.5",
		// A rail outage mid-run on a node feeding a shared trunk.
		"nodes=4 ppn=2 hcas=2 msg=32768 faults=down node=0 rail=1 until=80us",
	}
	for _, alg := range localityVariants {
		for _, env := range envs {
			fams["fabric-ft-2:1"] = append(fams["fabric-ft-2:1"],
				"alg="+alg+" "+withFabric(env, "ft:arity=2,levels=2,over=2"))
			fams["fabric-dfly"] = append(fams["fabric-dfly"],
				"alg="+alg+" "+withFabric(env, "dfly:groups=2,routers=2,nodes=1,global=2"))
		}
	}
	return fams
}

// withFabric splices a fabric= field into an env string, keeping faults=
// (which must stay last) at the end.
func withFabric(env, spec string) string {
	const faultsKey = " faults="
	for i := 0; i+len(faultsKey) <= len(env); i++ {
		if env[i:i+len(faultsKey)] == faultsKey {
			return env[:i] + " fabric=" + spec + env[i:]
		}
	}
	return env + " fabric=" + spec
}

// TestLocalityVariantsRegistered: the locality family joined the campaign
// pool through the collectives registration table, unconstrained (they
// derive node groups from the communicator, so any layout is fine).
func TestLocalityVariantsRegistered(t *testing.T) {
	for _, name := range localityVariants {
		a, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if a.BlockOnly || a.SingleNode || a.EvenPPN {
			t.Fatalf("%s should carry no topology constraints: %+v", name, a)
		}
	}
}

// TestFabricFamilies drives both fabric families through Check: every
// locality variant, byte-exact, on oversubscribed fat-tree and dragonfly
// fabrics, homogeneous and heterogeneous, healthy and under a rail fault.
func TestFabricFamilies(t *testing.T) {
	fams := fabricFamilies()
	for _, fam := range []string{"fabric-ft-2:1", "fabric-dfly"} {
		specs := fams[fam]
		if len(specs) != 4*3 {
			t.Fatalf("%s: %d scenarios, want every locality variant x 3 envs", fam, len(specs))
		}
		for _, spec := range specs {
			sc, err := ParseSpec(spec)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", fam, spec, err)
			}
			if vs := Check(sc); len(vs) > 0 {
				t.Errorf("%s: %s failed:", fam, spec)
				for _, v := range vs {
					t.Errorf("  %s", v)
				}
			}
		}
	}
}

// TestFabricSpecRoundTrip: the new scenario fields survive the
// Spec/ParseSpec round trip, so shrunk fabric failures stay replayable.
func TestFabricSpecRoundTrip(t *testing.T) {
	specs := []string{
		"alg=locality-ring nodes=4 ppn=2 hcas=2 msg=64 fabric=ft:arity=2,levels=2,over=2",
		"alg=hier-bruck-ml nodes=4 ppn=2 hcas=2 layout=cyclic msg=257 " +
			"fabric=dfly:groups=2,routers=2,nodes=1,local=1,global=2 nodehcas=2/1/2/1 railbw=1/0.5",
		"alg=locality-bruck nodes=2 ppn=2 hcas=2 msg=8 nodehcas=1/2",
	}
	for _, spec := range specs {
		sc, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		again, err := ParseSpec(sc.Spec())
		if err != nil {
			t.Fatalf("reparse %q: %v", sc.Spec(), err)
		}
		if again.Spec() != sc.Spec() {
			t.Fatalf("spec not a fixed point:\n  %s\n  %s", sc.Spec(), again.Spec())
		}
		for _, want := range []string{"fabric=", "nodehcas="} {
			if !strings.Contains(sc.Spec(), want) && strings.Contains(spec, want) {
				t.Fatalf("spec %q lost %q", sc.Spec(), want)
			}
		}
	}
	// A flat fabric normalizes away instead of cluttering every spec line.
	sc, err := ParseSpec("alg=ring nodes=2 ppn=2 hcas=2 msg=8 fabric=flat")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sc.Spec(), "fabric=") {
		t.Fatalf("flat fabric should not render: %s", sc.Spec())
	}
	// Fabric specs that cannot host the cluster are spec errors.
	if _, err := ParseSpec("alg=ring nodes=6 ppn=1 hcas=1 msg=8 fabric=dfly:groups=2,routers=2,nodes=2"); err == nil {
		t.Fatal("dragonfly that cannot tile 6 nodes should be rejected")
	}
}
