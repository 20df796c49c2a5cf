package kv

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name, in, want string // want is "" for success
	}{
		{"fields", "a=1 b=x=y", ""},
		{"no fields", "", ""},
		{"malformed field", "a=1 b", `malformed field "b"`},
		{"empty key", "=1", `malformed field "=1"`},
		{"empty value", "a=", `field "a=" has an empty value`},
		{"unknown key", "a=1 zig=3", `unknown key "zig"`},
		{"repeated key", "a=1 b=2 a=1", `duplicate key "a"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, err := Parse(strings.Fields(tc.in), "a", "b")
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Parse(%q): %v", tc.in, err)
			case tc.want != "" && err == nil:
				t.Fatalf("Parse(%q) accepted %v", tc.in, set)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Parse(%q) error %q does not mention %q", tc.in, err, tc.want)
			}
		})
	}
	set, err := Parse([]string{"a=1", "b=x=y"}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has("a") || set.Has("c") || set.Str("b", "") != "x=y" || set.Str("c", "def") != "def" {
		t.Errorf("set %v: Has/Str disagree with the fields", set)
	}
	if n, err := set.Int("a", 7); n != 1 || err != nil {
		t.Errorf("Int(a) = %d, %v; want 1", n, err)
	}
	if n, err := set.Int("c", 7); n != 7 || err != nil {
		t.Errorf("Int(c) = %d, %v; want the default 7", n, err)
	}
	if _, err := set.Int("b", 0); err == nil || !strings.Contains(err.Error(), `bad b value "x=y"`) {
		t.Errorf("Int(b) error %v, want bad b value", err)
	}
}

func TestLines(t *testing.T) {
	text := "# header comment\n\none a=1 # trailing\n   \n  # indented comment\ntwo\tb=2\n#"
	var got []string
	err := Lines(text, func(ln int, fields []string) error {
		got = append(got, strings.Join(append([]string{strconv.Itoa(ln)}, fields...), " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"3 one a=1", "6 two b=2"}; !slices.Equal(got, want) {
		t.Errorf("Lines saw %q, want %q", got, want)
	}
	stop := errors.New("stop")
	calls := 0
	err = Lines("a\nb\nc", func(int, []string) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Errorf("Lines returned %v after %d calls; want the first error after 1", err, calls)
	}
}

// FuzzParseKV drives Lines and Parse with arbitrary text. Properties:
// neither panics, and a set Parse accepts re-renders to fields that
// parse to the same set.
func FuzzParseKV(f *testing.F) {
	for _, seed := range []string{
		"x a=1 b=2 c=3",
		"x a=1 # comment b=2\n\ny c=x=y",
		"x a", "x =1", "x a=", "x zig=1", "x a=1 a=2",
		"# only\n   \n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		_ = Lines(text, func(ln int, fields []string) error {
			set, err := Parse(fields[1:], "a", "b", "c")
			if err != nil {
				return nil // rejected input is fine; not panicking is the property
			}
			var again []string
			for k, v := range set {
				again = append(again, k+"="+v)
			}
			slices.Sort(again)
			back, err := Parse(again, "a", "b", "c")
			if err != nil {
				t.Fatalf("line %d: re-rendered %q does not parse: %v", ln, again, err)
			}
			if !maps.Equal(back, set) {
				t.Fatalf("line %d: %v re-parses as %v", ln, set, back)
			}
			return nil
		})
	})
}
