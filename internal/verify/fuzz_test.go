package verify

import "testing"

// FuzzParseScenarioSpec: ParseSpec never panics, a line it accepts is a
// valid scenario, and its Spec() is a ParseSpec fixed point, so a
// printed repro always replays the scenario it names.
func FuzzParseScenarioSpec(f *testing.F) {
	for _, seed := range []string{
		"alg=ring nodes=2 ppn=4 hcas=2 sockets=0 layout=block msg=257 seed=1 jitter=0 blind=0 faults=none",
		"alg=mha nodes=2 ppn=4 hcas=2 msg=257 faults=down node=0 rail=1 until=40us",
		"alg=compose-ag nodes=8 ppn=2 hcas=2 sockets=0 layout=block msg=13 seed=211160838 jitter=0.05 blind=0 nodehcas=2/1/1/1/1/1/2/1 faults=none",
		"alg=ring nodes=4 ppn=2 hcas=2 layout=cyclic fabric=ft:arity=2,levels=2,over=2 railbw=1/0.5",
		"alg=ring nodes=2 ppn=2 hcas=2 blind=1 faults=down node=0 rail=1 until=40us; degrade node=* rail=1 frac=0.5 from=40us",
		"alg=ring alg=mha nodes=2 ppn=2 hcas=2",
		"alg=ring nodes=2 nodes=4",
		"alg=ring blind=yes",
		"alg=ring nodes=2 jitter=5",
		"alg=ring nodes=2 jitter=+Inf",
		"alg=ring nodes=2 jitter=NaN",
		"alg=mha-intra nodes=2 ppn=2",
		"alg=ring nodes=4294967296 ppn=4294967296",
		"alg=ring nodes=3037000499 ppn=3037000499",
		"alg=ring faults=down node=5 z=1",
		"nodes=2",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sc, err := ParseSpec(line)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if verr := sc.Validate(); verr != nil {
			t.Fatalf("ParseSpec accepted a scenario its own Validate rejects: %v\ninput: %q", verr, line)
		}
		spec := sc.Spec()
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("Spec() output does not re-parse: %v\ninput: %q\nspec: %q", err, line, spec)
		}
		if back.Spec() != spec {
			t.Fatalf("Spec/ParseSpec not a fixed point:\nfirst:  %q\nsecond: %q", spec, back.Spec())
		}
	})
}
