package explore

import "testing"

// FuzzParseExploreSpec drives the repro-spec parser with arbitrary
// input. Properties: ParseSpec never panics; whatever it accepts
// validates, renders via String() in a form ParseSpec accepts again, and
// that render is a fixed point — otherwise a counterexample line printed
// by mha explore might not replay.
func FuzzParseExploreSpec(f *testing.F) {
	for _, seed := range []string{
		"alg=ring nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=canonical",
		"alg=rd nodes=2 ppn=1 hcas=2 msg=0 fault=node1.rail0 sched=0.2.1",
		"alg=sched-mha nodes=1 ppn=3 hcas=1 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2",
		"alg=ring",
		"alg=ring sched=7",
		"alg=ring nodes=4 ppn=4",
		"alg=ring nodes=2 fault=node5.rail0",
		"alg=ring nodes=2 fault=node0.railxy",
		"alg=ring nodes=-1",
		"alg=ring msg=x",
		"alg= nodes=2",
		"nodes=2 ppn=2",
		"alg=ring bogus=1",
		"alg=ring sched=0.-1.2",
		"alg=ring sched=a.b",
		"alg=ring sched=",
		"  alg=ring   nodes=2  ",
		"alg=ring nodes=99999999999999999999",
		"alg=ring nodes=4294967296 ppn=4294967296",
		"alg=ring alg=rd nodes=2 ppn=1 hcas=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseSpec(line)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseSpec accepted a spec its own Validate rejects: %v\ninput: %q", verr, line)
		}
		rendered := s.String()
		s2, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("String() output does not re-parse: %v\ninput: %q\nrendered: %q", err, line, rendered)
		}
		if s2.String() != rendered {
			t.Fatalf("String/Parse not a fixed point:\nfirst:  %q\nsecond: %q", rendered, s2.String())
		}
	})
}
