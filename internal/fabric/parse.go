package fabric

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"mha/internal/kv"
)

// ParseSpec parses the compact fabric spec grammar. It never panics on
// hostile input (fuzzed), rejects unknown and duplicate keys, and only
// returns specs that Validate. The empty string and "flat" both mean
// the flat fabric.
func ParseSpec(text string) (Spec, error) {
	t := strings.TrimSpace(text)
	if t == "" || t == "flat" {
		return Spec{Kind: Flat}, nil
	}
	head, rest, ok := strings.Cut(t, ":")
	if !ok {
		return Spec{}, fmt.Errorf("fabric: spec %q: want flat, ft:... or dfly:...", text)
	}
	var s Spec
	var err error
	switch head {
	case "ft", "fattree":
		s, err = parseFatTree(rest)
	case "dfly", "dragonfly":
		s, err = parseDragonfly(rest)
	default:
		return Spec{}, fmt.Errorf("fabric: unknown fabric kind %q", head)
	}
	if err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Canonical parses a spec and renders its canonical form, "" for the
// flat fabric: the form the verify and explore repro lines hold.
func Canonical(text string) (string, error) {
	s, err := ParseSpec(text)
	if err != nil || s.Kind == Flat {
		return "", err
	}
	return s.String(), nil
}

// MustParse is ParseSpec for statically known specs (tests, tables).
func MustParse(text string) Spec {
	s, err := ParseSpec(text)
	if err != nil {
		panic(err)
	}
	return s
}

func parseFatTree(rest string) (Spec, error) {
	s := Spec{Kind: FatTree}
	set, err := kv.Parse(strings.Split(rest, ","), "arity", "levels", "over")
	if err != nil {
		return Spec{}, fmt.Errorf("fabric: %v", err)
	}
	if s.Arity, err = count(set, "arity", 0); err != nil {
		return Spec{}, err
	}
	if s.Levels, err = count(set, "levels", 2); err != nil {
		return Spec{}, err
	}
	if set.Has("over") {
		for _, part := range strings.Split(set.Str("over", ""), "/") {
			o, err := parseFactor(part)
			if err != nil {
				return Spec{}, err
			}
			s.Over = append(s.Over, o)
		}
	}
	if s.Arity == 0 {
		return Spec{}, fmt.Errorf("fabric: fat-tree spec needs arity=")
	}
	if !set.Has("levels") && len(s.Over) > 1 {
		// Taper list implies the trunk-level count.
		s.Levels = len(s.Over) + 1
	}
	// Missing trailing tapers read as full bisection.
	for s.Levels >= 2 && len(s.Over) < s.Levels-1 {
		s.Over = append(s.Over, 1)
	}
	return s, nil
}

func parseDragonfly(rest string) (Spec, error) {
	s := Spec{Kind: Dragonfly}
	set, err := kv.Parse(strings.Split(rest, ","), "groups", "routers", "nodes", "nodesper", "local", "global")
	if err != nil {
		return Spec{}, fmt.Errorf("fabric: %v", err)
	}
	nodes := "nodes"
	if set.Has("nodesper") {
		if set.Has("nodes") {
			return Spec{}, fmt.Errorf("fabric: duplicate key %q (nodesper is nodes)", "nodes")
		}
		nodes = "nodesper"
	}
	var errs [5]error
	s.Groups, errs[0] = count(set, "groups", 0)
	s.Routers, errs[1] = count(set, "routers", 0)
	s.NodesPer, errs[2] = count(set, nodes, 1)
	s.LocalOver, errs[3] = parseFactor(set.Str("local", "1"))
	s.GlobalOver, errs[4] = parseFactor(set.Str("global", "1"))
	if err := cmp.Or(errs[:]...); err != nil {
		return Spec{}, err
	}
	if s.Groups == 0 || s.Routers == 0 {
		return Spec{}, fmt.Errorf("fabric: dragonfly spec needs groups= and routers=")
	}
	return s, nil
}

// count reads a non-negative integer value, def when the key is absent.
func count(set kv.Set, k string, def int) (int, error) {
	n, err := set.Int(k, def)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("fabric: bad count %q", set.Str(k, ""))
	}
	return n, nil
}

// parseFactor reads an oversubscription factor: a plain float ("2",
// "1.5") or a ratio ("2:1", "3:2").
func parseFactor(val string) (float64, error) {
	if num, den, ok := strings.Cut(val, ":"); ok {
		a, err1 := strconv.ParseFloat(num, 64)
		b, err2 := strconv.ParseFloat(den, 64)
		if err1 != nil || err2 != nil || !(b > 0) {
			return 0, fmt.Errorf("fabric: bad oversubscription ratio %q", val)
		}
		return a / b, nil
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("fabric: bad oversubscription %q", val)
	}
	return f, nil
}
