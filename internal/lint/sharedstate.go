package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// sharedstate is the static shard-safety fence: no mutable value may be
// reachable from two simulated processes except through an engine-owned
// type. The engine interleaves proc steps deterministically, so a plain
// variable written by one proc and read by another is a data race in
// real-world terms and a replay hazard in simulated ones — the observed
// value depends on the event order, which is exactly what the scenario
// seed is supposed to pin down. sim.Resource, Mailbox, and the counter
// types serialize access through the event queue and are exempt.
//
// A spawn site is a call to Spawn or Run passing a closure whose
// parameter list includes a *Proc. Two hazards are reported:
//
//   - a variable captured by two or more spawned closures, written by at
//     least one of them;
//   - a closure spawned inside a loop writing a capture declared outside
//     the loop — with Go's per-iteration loop variables, everything
//     declared inside the loop body is private to one proc, and
//     everything outside is shared by all iterations.
//
// Captures are keyed by declaration position, which the shared FileSet
// makes unique across the whole program, so a package-level variable
// captured by spawn closures in two different functions is caught too.
var sharedstatePass = &Pass{
	Name:  "sharedstate",
	Doc:   "no mutable value shared across spawned sim procs except engine-owned types",
	Scope: scopeInternal,
}

func init() { sharedstatePass.RunProgram = runSharedstate }

// sharedExemptNames are the engine-owned types whose methods serialize
// cross-proc access; sharing them is the sanctioned channel. Matching is
// by type name plus the sim package path, so fixture stubs with the same
// names exercise the same rule.
var sharedExemptNames = map[string]bool{
	"Resource": true, "Mailbox": true, "Counter": true,
	"Gauge": true, "Engine": true, "Proc": true, "World": true,
}

// sharedExempt reports whether a captured variable's type is safe to
// share: an engine-owned named type (directly, behind pointers, or as a
// slice of such), anything from the sim package, or a function type
// (code is immutable; a closure value is only hazardous through its own
// captures, which are analyzed separately).
func sharedExempt(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return sharedExempt(t.Elem())
	case *types.Slice:
		return sharedExempt(t.Elem())
	case *types.Signature:
		return true
	case *types.Named:
		if sharedExemptNames[t.Obj().Name()] {
			return true
		}
		if pkg := t.Obj().Pkg(); pkg != nil && strings.HasSuffix(pkg.Path(), "internal/sim") {
			return true
		}
		if _, isFunc := t.Underlying().(*types.Signature); isFunc {
			return true
		}
	}
	return false
}

// spawnSite is one spawned closure with its context.
type spawnSite struct {
	fi   *FuncInfo
	call *ast.CallExpr
	fl   *ast.FuncLit
	loop ast.Node // innermost for/range enclosing the spawn, nil if none
}

// spawnClosure returns the proc-body closure of a Spawn/Run call, or nil.
func spawnClosure(u *Unit, call *ast.CallExpr) *ast.FuncLit {
	id := calleeIdent(call)
	if id == nil || (id.Name != "Spawn" && id.Name != "Run") {
		return nil
	}
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		if hasProcParam(u, fl) {
			return fl
		}
	}
	return nil
}

// hasProcParam reports whether a closure's parameter list includes a
// parameter of type *Proc (any package's Proc: the engine's, or a
// fixture stub's).
func hasProcParam(u *Unit, fl *ast.FuncLit) bool {
	if fl.Type.Params == nil {
		return false
	}
	for _, field := range fl.Type.Params.List {
		tv, ok := u.Info.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Proc" {
			return true
		}
	}
	return false
}

// enclosingLoop returns the innermost for/range statement containing n
// within its function, or nil.
func enclosingLoop(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch cur.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return cur
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// sharedCapture is one (spawn site, captured variable) pair.
type sharedCapture struct {
	site *spawnSite
	cap  *capture
}

func runSharedstate(p *Program) []Diagnostic {
	var sites []*spawnSite
	for _, fi := range p.Funcs {
		if !applies(sharedstatePass, fi.Unit.Path) {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fl := spawnClosure(fi.Unit, call); fl != nil {
				sites = append(sites, &spawnSite{
					fi: fi, call: call, fl: fl,
					loop: enclosingLoop(fi.parents, call),
				})
			}
			return true
		})
	}

	var out []Diagnostic
	byDecl := map[token.Pos][]sharedCapture{} // capture groups across all sites

	for _, site := range sites {
		for _, c := range capturesOf(site.fi.Unit, site.fl, site.fi.parents) {
			if sharedExempt(c.obj.Type()) {
				continue
			}
			byDecl[c.obj.Pos()] = append(byDecl[c.obj.Pos()], sharedCapture{site: site, cap: c})

			// Loop rule: one closure, many procs. A capture declared
			// outside the enclosing loop is the same variable in every
			// spawned proc.
			if site.loop == nil || !c.written {
				continue
			}
			if insideNode(c.obj.Pos(), site.loop) {
				continue // per-iteration: private to this proc
			}
			out = append(out, Diagnostic{
				Pos:  site.fi.Unit.Fset.Position(c.firstAt),
				Pass: "sharedstate",
				Message: "proc body spawned in a loop writes " + c.obj.Name() +
					", declared outside the loop and therefore shared by every spawned proc; declare it inside the loop or route the mutation through an engine-owned type (sim.Resource, Mailbox, Counter)",
			})
		}
	}

	// Cross-closure rule: the same variable captured by two or more
	// spawned procs, written by at least one.
	declKeys := make([]token.Pos, 0, len(byDecl))
	for k := range byDecl {
		declKeys = append(declKeys, k)
	}
	sort.Slice(declKeys, func(i, j int) bool { return declKeys[i] < declKeys[j] })
	for _, k := range declKeys {
		group := byDecl[k]
		if len(group) < 2 {
			continue
		}
		written := false
		for _, sc := range group {
			written = written || sc.cap.written
		}
		if !written {
			continue
		}
		for _, sc := range group {
			if !sc.cap.written {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  sc.site.fi.Unit.Fset.Position(sc.cap.firstAt),
				Pass: "sharedstate",
				Message: "proc body writes " + sc.cap.obj.Name() + ", which is captured by " +
					strconv.Itoa(len(group)) + " spawned procs; cross-proc mutable state must go through an engine-owned type (sim.Resource, Mailbox, Counter) or a per-proc copy",
			})
		}
	}
	return out
}
