// Package kv is the one tokenizer under the repo's text spec grammars:
// the fault schedule, the sched text form, the compose pipeline and
// hierarchy, the fabric spec, and the verify and explore repro lines.
// The machine-shape keys of a set are read by topology.Decode, over a
// default cluster each grammar passes; every other key, each grammar's
// directives, encoder and error prefix stay the grammar's own. kv only
// splits lines and key=value fields, and is strict
// in one place: a field with no '=', an empty key, an empty value, a key
// the directive does not take, and a repeated key are all errors.
package kv

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Lines calls fn with the whitespace-separated fields of every line of
// text that has any once its '#' comment is cut, and with the line's
// 1-based number. It stops at, and returns, fn's first error.
func Lines(text string, fn func(ln int, fields []string) error) error {
	for i, line := range strings.Split(text, "\n") {
		if c := strings.IndexByte(line, '#'); c >= 0 {
			line = line[:c]
		}
		if fields := strings.Fields(line); len(fields) > 0 {
			if err := fn(i+1, fields); err != nil {
				return err
			}
		}
	}
	return nil
}

// Set holds the key=value fields of one directive.
type Set map[string]string

// Parse reads "key=value" fields; the value runs from the first '=' to
// the end of the field. It refuses a field with no '=', an empty key or
// value, a key not in allowed, and a repeated key.
func Parse(fields []string, allowed ...string) (Set, error) {
	s := Set{}
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		switch {
		case !ok || k == "":
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		case v == "":
			return nil, fmt.Errorf("field %q has an empty value", f)
		case !slices.Contains(allowed, k):
			return nil, fmt.Errorf("unknown key %q", k)
		}
		if _, dup := s[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		s[k] = v
	}
	return s, nil
}

// Has reports whether the key was given.
func (s Set) Has(k string) bool {
	_, ok := s[k]
	return ok
}

// Str returns the key's value, or def when it was not given.
func (s Set) Str(k, def string) string {
	if v, ok := s[k]; ok {
		return v
	}
	return def
}

// Int returns the key's value as an integer, or def when it was not
// given.
func (s Set) Int(k string, def int) (int, error) {
	v, ok := s[k]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", k, v)
	}
	return n, nil
}
