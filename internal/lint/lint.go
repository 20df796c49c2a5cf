// Package lint implements `mha lint`, a stdlib-only static-analysis suite
// that proves the simulator's determinism and resource-discipline rules
// at build time (go/ast + go/parser + go/types; no external modules).
//
// The runtime audits — CheckQuiescent, VerifyTeardown, the verification
// campaign's trace-hash cross-check — catch invariant violations only on
// the scenarios a run happens to execute. The passes here encode the same
// contracts as compile-time rules over the whole tree:
//
//	detnow      no wall-clock or process-global randomness in sim code
//	maporder    no map iteration with order-dependent effects
//	waitpair    every Isend/Irecv result reaches a Wait/Waitall, tracked
//	            through helpers via call-graph summaries
//	railpin     rail pinning comes from planning, not hardwired constants
//	gonosim     no raw goroutines where the engine must own scheduling
//	sharedstate no mutable value shared across sim procs except through
//	            engine-owned types (Resource, Mailbox, Counter, Gauge)
//	purity      //lint:pure roots are transitively free of wall-clock,
//	            global-randomness, and map-order effects
//	locklint    every mutex unlocks on all paths and is never held
//	            across a simulation or synthesis call
//	suppaudit   no //lint:ignore directive that suppresses nothing
//
// The first six are unit passes (one package at a time); waitpair,
// sharedstate, purity, and locklint run over a whole Program — the call
// graph and capture analysis built in program.go — so helpers, closures,
// and cross-package call chains are inside the proof, not exempt from it.
//
// A finding can be silenced for one line with
//
//	//lint:ignore <pass> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory: a suppression without one is itself reported, and a
// suppression that no longer suppresses anything is reported by
// suppaudit. A function can be declared a purity root with //lint:pure
// on the line above its declaration.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// A Pass is one analysis. Scope selects the packages it applies to by
// import path; every pass additionally applies to its own fixture package
// under internal/lint/testdata/src/<name>. Exactly one of Run (unit at a
// time) and RunProgram (whole loaded program at once) is set, except for
// suppaudit, which the driver implements itself from the other passes'
// results.
type Pass struct {
	Name       string
	Doc        string
	Scope      func(path string) bool
	Run        func(u *Unit) []Diagnostic
	RunProgram func(p *Program) []Diagnostic
}

// Passes returns every registered analysis in reporting order.
func Passes() []*Pass {
	return []*Pass{
		detnowPass, maporderPass, waitpairPass, railpinPass, gonosimPass,
		sharedstatePass, purityPass, locklintPass, suppauditPass,
	}
}

// suppauditPass is the driver-implemented suppression audit: a valid
// //lint:ignore that matched no finding of its named passes is dead
// weight that will silently swallow a future, different finding on that
// line — it must be deleted (or re-justified) instead.
var suppauditPass = &Pass{
	Name:  "suppaudit",
	Doc:   "report stale //lint:ignore directives that no longer suppress anything",
	Scope: func(string) bool { return true },
}

// PassNames returns the registered pass names in reporting order.
func PassNames() []string {
	out := make([]string, 0, 16)
	for _, p := range Passes() {
		out = append(out, p.Name)
	}
	return out
}

// applies reports whether pass p checks the package at import path. The
// suppaudit fixture package is in every pass's scope so its fixtures can
// exercise live and stale suppressions of real passes.
func applies(p *Pass, path string) bool {
	if strings.HasSuffix(path, "/lint/testdata/src/"+p.Name) {
		return true
	}
	if strings.HasSuffix(path, "/lint/testdata/src/suppaudit") {
		return true
	}
	return p.Scope(path)
}

// Check runs the given passes over the units and returns the surviving
// diagnostics sorted by position. Suppressed findings are dropped;
// malformed or unknown //lint:ignore directives are reported under the
// pseudo-pass "lint"; stale directives are reported by suppaudit when it
// is among the selected passes.
func Check(units []*Unit, passes []*Pass) []Diagnostic {
	known := map[string]bool{}
	for _, p := range Passes() {
		known[p.Name] = true
	}
	selected := map[string]bool{}
	for _, p := range passes {
		selected[p.Name] = true
	}

	igs, out := collectIgnores(units, known)

	var prog *Program
	for _, p := range passes {
		if p.RunProgram != nil && prog == nil {
			prog = BuildProgram(units)
		}
	}

	var raw []Diagnostic
	for _, p := range passes {
		switch {
		case p.RunProgram != nil:
			raw = append(raw, p.RunProgram(prog)...)
		case p.Run != nil:
			for _, u := range units {
				if !applies(p, u.Path) {
					continue
				}
				raw = append(raw, p.Run(u)...)
			}
		}
	}
	for _, d := range raw {
		if igs.covers(d.Pass, d.Pos) {
			continue
		}
		out = append(out, d)
	}

	if selected["suppaudit"] {
		out = append(out, igs.stale(selected)...)
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	return out
}

// An ignoreEntry is one valid //lint:ignore directive, tracked for
// staleness: it is used when any finding of a named pass lands on its
// line or the line below.
type ignoreEntry struct {
	pos    token.Position
	passes []string
	used   bool
}

// ignoreSet indexes the valid directives by file and directive line.
type ignoreSet struct {
	byFile map[string]map[int]*ignoreEntry
	all    []*ignoreEntry // in collection order for deterministic audits
}

// covers reports whether a finding for pass at pos is suppressed: a
// directive counts for its own line and the line immediately below it.
// Matching marks the directive used for the suppression audit.
func (s *ignoreSet) covers(pass string, pos token.Position) bool {
	lines := s.byFile[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		e := lines[line]
		if e == nil {
			continue
		}
		for _, p := range e.passes {
			if p == pass {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

func (s *ignoreSet) add(e *ignoreEntry) {
	if s.byFile == nil {
		s.byFile = map[string]map[int]*ignoreEntry{}
	}
	lines := s.byFile[e.pos.Filename]
	if lines == nil {
		lines = map[int]*ignoreEntry{}
		s.byFile[e.pos.Filename] = lines
	}
	if prev := lines[e.pos.Line]; prev != nil {
		prev.passes = append(prev.passes, e.passes...)
		return
	}
	lines[e.pos.Line] = e
	s.all = append(s.all, e)
}

// stale reports every unused directive whose named passes all ran — a
// directive for an unselected pass is not judged, since its finding had
// no chance to appear.
func (s *ignoreSet) stale(selected map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range s.all {
		if e.used {
			continue
		}
		judged := true
		for _, p := range e.passes {
			if !selected[p] {
				judged = false
			}
		}
		if !judged {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  e.pos,
			Pass: "suppaudit",
			Message: fmt.Sprintf("//lint:ignore %s suppresses nothing: no such finding on this or the next line; delete the directive",
				strings.Join(e.passes, ",")),
		})
	}
	return out
}

// collectIgnores scans every comment in every unit for //lint:ignore
// directives. Valid directives populate the returned set; a directive
// with no reason, or naming a pass that does not exist, is reported and
// suppresses nothing.
func collectIgnores(units []*Unit, known map[string]bool) (*ignoreSet, []Diagnostic) {
	igs := &ignoreSet{}
	var bad []Diagnostic
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					dir := parseDirective(c.Text)
					pos := u.Fset.Position(c.Pos())
					switch dir.kind {
					case directiveBad:
						bad = append(bad, Diagnostic{Pos: pos, Pass: "lint", Message: dir.problem})
					case directiveIgnore:
						entry := &ignoreEntry{pos: pos}
						for _, name := range dir.passes {
							if !known[name] {
								bad = append(bad, Diagnostic{
									Pos:     pos,
									Pass:    "lint",
									Message: fmt.Sprintf("//lint:ignore names unknown pass %q (have %s)", name, strings.Join(PassNames(), ", ")),
								})
								continue
							}
							entry.passes = append(entry.passes, name)
						}
						if len(entry.passes) > 0 {
							igs.add(entry)
						}
					}
				}
			}
		}
	}
	return igs, bad
}

// scopeIn builds a Scope matching any import path ending in one of the
// given package suffixes (e.g. "internal/sim").
func scopeIn(segs ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range segs {
			if strings.HasSuffix(path, s) {
				return true
			}
		}
		return false
	}
}

// scopeInternal matches every package under internal/ except the lint
// suite itself (whose bookkeeping legitimately walks maps and has no sim
// side effects).
func scopeInternal(path string) bool {
	if !strings.Contains(path, "/internal/") {
		return false
	}
	return !strings.Contains(path, "/internal/lint")
}

// diag builds a Diagnostic at a node's position.
func diag(u *Unit, n ast.Node, pass, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Pos: u.Fset.Position(n.Pos()), Pass: pass, Message: fmt.Sprintf(format, args...)}
}
