package faults

import (
	"strings"
	"testing"
)

// FuzzParseSpec drives the fault-schedule spec parser with arbitrary
// input. Properties: Parse never panics; whatever it accepts validates,
// renders via String() in a form Parse accepts again, and that render is
// a fixed point (String -> Parse -> String is identity).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"down node=0 rail=1 from=10us until=2ms",
		"degrade node=* rail=1 frac=0.5",
		"latency node=2 rail=* extra=5us from=1ms until=forever",
		"flap node=1 rail=0 period=200us down=50us",
		"# a comment\n\ndown    node=0 rail=1 until=40us\ndegrade node=* rail=1 frac=0.5 from=40us",
		"down node=0 rail=1 until=40us # trailing comment",
		"explode node=0",
		"down node=x",
		"down from=banana",
		"down node=0 rail",
		"down wat=1",
		"degrade node=0 rail=0",
		"down from=-5us",
		"flap period=0s down=0s",
		"degrade frac=1.5",
		"latency extra=9223372036854775807ns",
		"down from=2ms until=1ms",
		"degrade node=0 rail=0 frac=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if s.Len() == 0 {
			return // empty schedules render as "(healthy)", which Parse rejects
		}
		rendered := s.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() output does not re-parse: %v\ninput: %q\nrendered:\n%s", err, text, rendered)
		}
		if s2.String() != rendered {
			t.Fatalf("String/Parse not a fixed point:\nfirst:  %s\nsecond: %s", rendered, s2.String())
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round trip changed fault count: %d -> %d", s.Len(), s2.Len())
		}
		// Accepted schedules must be internally consistent: every fault's
		// textual form is one line of the render.
		if got := len(strings.Split(rendered, "\n")); got != s.Len() {
			t.Fatalf("render has %d lines for %d faults", got, s.Len())
		}
	})
}
