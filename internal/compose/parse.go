package compose

import (
	"errors"
	"fmt"
	"strings"

	"mha/internal/kv"
)

// The composition spec is line-oriented, mirroring the sched text form:
//
//	compose rs-mha coll=reduce-scatter
//	red scope=node
//	red scope=leaders alg=ring
//	mc scope=node alg=pull
//
// A primitive line is its op ("mc", "red" or "fence") followed by
// key=value fields; "fence" takes none. Blank lines and '#' comments
// are skipped. String is the canonical renderer and
// String(ParseComposition(String(c))) is a fixed point.

// String renders the canonical text form.
func (c Composition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compose %s coll=%s\n", c.Name, c.Coll)
	for _, pr := range c.Pipeline {
		b.WriteString(pr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one primitive line.
func (pr Prim) String() string {
	if pr.Op == Fence {
		return "fence"
	}
	s := fmt.Sprintf("%s scope=%s alg=%s", pr.Op, pr.Scope, pr.Alg)
	if pr.Striped {
		s += " striped=1"
	}
	if pr.Offload != 0 {
		if pr.Offload == AutoOffload {
			s += " offload=auto"
		} else {
			s += fmt.Sprintf(" offload=%d", pr.Offload)
		}
	}
	return s
}

// ParseComposition reads the text form String produces. The result is
// shape-checked (known ops, scopes and algs; a non-empty pipeline);
// whether the pipeline actually lowers for a machine is Lower's job.
func ParseComposition(text string) (Composition, error) {
	var c Composition
	named := false
	directive := func(fields []string) error {
		switch fields[0] {
		case "compose":
			if named {
				return errors.New("duplicate compose header")
			}
			if len(fields) < 2 || strings.ContainsRune(fields[1], '=') {
				return errors.New("compose header needs a name")
			}
			set, err := kv.Parse(fields[2:], "coll")
			if err != nil {
				return err
			}
			coll, err := ParseCollective(set.Str("coll", ""))
			if err != nil {
				return err
			}
			c.Name, c.Coll = fields[1], coll
			named = true
		case "mc", "red":
			if !named {
				return errors.New("primitive before compose header")
			}
			set, err := kv.Parse(fields[1:], "scope", "alg", "striped", "offload")
			if err != nil {
				return err
			}
			pr := Prim{Op: Multicast}
			if fields[0] == "red" {
				pr.Op = Reduce
			}
			if pr.Scope, err = parseScope(set.Str("scope", "world")); err != nil {
				return err
			}
			if pr.Alg, err = parseAlg(set.Str("alg", "direct")); err != nil {
				return err
			}
			striped, err := set.Int("striped", 0)
			if err != nil {
				return err
			}
			pr.Striped = striped != 0
			if set.Str("offload", "") == "auto" {
				pr.Offload = AutoOffload
			} else if pr.Offload, err = set.Int("offload", 0); err != nil {
				return err
			}
			if pr.Offload < AutoOffload {
				return fmt.Errorf("offload %d out of range", pr.Offload)
			}
			c.Pipeline = append(c.Pipeline, pr)
		case "fence":
			if !named {
				return errors.New("primitive before compose header")
			}
			if len(fields) != 1 {
				return errors.New("fence takes no arguments")
			}
			c.Pipeline = append(c.Pipeline, Prim{Op: Fence})
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	}
	err := kv.Lines(text, func(ln int, fields []string) error {
		if err := directive(fields); err != nil {
			return fmt.Errorf("compose: line %d: %v", ln, err)
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	if !named {
		return c, fmt.Errorf("compose: empty input")
	}
	if len(c.Pipeline) == 0 {
		return c, fmt.Errorf("compose: %s has no primitives", c.Name)
	}
	return c, nil
}
