package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program layer under the interprocedural passes:
// a function index over every loaded unit, a call graph sorted by
// function name, and a capture analysis for closures. Passes that need to
// see across function and package boundaries (sharedstate, purity,
// locklint, the interprocedural half of waitpair) run over a Program;
// the original single-unit passes still run unit by unit.

// A Program is the whole loaded tree: every unit plus the derived
// function index and call graph.
type Program struct {
	Units []*Unit
	// Funcs lists every function declared in a loaded unit, sorted by Key.
	Funcs []*FuncInfo
	byObj map[*types.Func]*FuncInfo
}

// A FuncInfo is one declared function or method with its derived facts.
type FuncInfo struct {
	Key  string // types.Func.FullName: the sort key and the name in messages
	Unit *Unit
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Callees lists every statically resolvable callee declared in the
	// program, sorted by Key and deduplicated. Calls through function
	// values and interface methods have no static target and are not
	// recorded; referencing a function as a value (a method value, a
	// handler registration) conservatively counts as an edge, since a
	// reference is how a later dynamic call is formed.
	Callees []*FuncInfo
	// parents maps every node in Decl to its syntactic parent; built
	// once per function and shared by the analyses.
	parents map[ast.Node]ast.Node

	summary *reqSummary // waitpair interprocedural summary, lazily built
	facts   *purityFacts
}

// BuildProgram derives the function index and call graph from the loaded
// units. It is deterministic: units arrive sorted by import path, files
// within a unit are sorted, and every derived list is sorted stably by
// Key (a package's init functions share one).
func BuildProgram(units []*Unit) *Program {
	p := &Program{Units: units, byObj: map[*types.Func]*FuncInfo{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:     obj.FullName(),
					Unit:    u,
					Decl:    fd,
					Obj:     obj,
					parents: buildParents(fd),
				}
				p.Funcs = append(p.Funcs, fi)
				p.byObj[obj] = fi
			}
		}
	}
	sortByKey(p.Funcs)
	for _, fi := range p.Funcs {
		fi.Callees = p.callees(fi)
	}
	return p
}

func sortByKey(fs []*FuncInfo) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
}

// FuncAt resolves a call expression to the declared function it
// statically targets, or nil for dynamic and out-of-program calls.
func (p *Program) FuncAt(u *Unit, call *ast.CallExpr) *FuncInfo {
	return p.byObj[staticCallee(u, call)]
}

// staticCallee resolves a call's target to a declared *types.Func: a
// plain function call, a method call, or a qualified pkg.F call. Dynamic
// calls (function values, interface methods resolve to the interface
// method object, which has no body in the index) return that object too;
// the index lookup then misses, which is the conservative outcome.
func staticCallee(u *Unit, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := u.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := u.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callees records every statically resolvable outgoing edge of one
// function, including closures declared inside it (a closure's calls are
// attributed to the enclosing declaration) and bare function references.
func (p *Program) callees(fi *FuncInfo) []*FuncInfo {
	seen := map[*FuncInfo]bool{}
	var out []*FuncInfo
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, _ := fi.Unit.Info.Uses[id].(*types.Func)
		if callee := p.byObj[fn]; callee != nil && !seen[callee] {
			seen[callee] = true // self-edges stay: recursion is a real cycle
			out = append(out, callee)
		}
		return true
	})
	sortByKey(out)
	return out
}

// moduleOf returns the leading path segment of an import path — the
// loaded tree's module name for every unit ("mha" here, the fixture
// package's own path in tests).
func moduleOf(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// InProgramPackage reports whether a function object belongs to a
// package of the loaded module (as opposed to the stdlib), whether or
// not that package was loaded as a unit.
func (p *Program) InProgramPackage(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil || len(p.Units) == 0 {
		return false
	}
	return moduleOf(pkg.Path()) == moduleOf(p.Units[0].Path)
}

// ---- Capture analysis ----------------------------------------------------

// A capture is one variable a closure references from an enclosing
// scope, with how the closure treats it.
type capture struct {
	obj     types.Object
	written bool      // assigned, grown, inc/dec'd, or address-taken inside the closure
	firstAt token.Pos // first occurrence inside the closure, for reporting
	uses    []*ast.Ident
}

// captures lists the variables a FuncLit references but does not
// declare: free variables of the closure, classified read vs written.
// parents must cover the FuncLit (built from an enclosing declaration).
// Package-level variables count — a global captured by a process body is
// the sharedstate hazard case — but package-level funcs, consts, and
// types do not.
func capturesOf(u *Unit, fl *ast.FuncLit, parents map[ast.Node]ast.Node) []*capture {
	found := map[types.Object]*capture{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := u.Info.ObjectOf(id)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the closure (including its own params)?
		if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
			return true
		}
		c := found[obj]
		if c == nil {
			c = &capture{obj: obj, firstAt: id.Pos()}
			found[obj] = c
		}
		c.uses = append(c.uses, id)
		if isWriteUse(u, id, parents) {
			c.written = true
		}
		return true
	})
	out := make([]*capture, 0, len(found))
	for _, c := range found {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstAt < out[j].firstAt })
	return out
}

// isWriteUse reports whether one identifier occurrence mutates the
// variable it names: the variable (or a selector/index chain rooted at
// it) on the left of an assignment, an IncDec, a range clause assigning
// into it, or its address taken (after which any mutation is possible).
// Method calls are deliberately not writes: mutation through a method is
// the engine-mediated channel (Resource.Acquire, Mailbox.Put) that
// sharedstate's exemption list sanctions explicitly.
func isWriteUse(u *Unit, id *ast.Ident, parents map[ast.Node]ast.Node) bool {
	var cur ast.Node = id
	for {
		parent := parents[cur]
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.SelectorExpr:
			if p.X == cur {
				cur = p // x.f: keep climbing — x.f = v writes x
				continue
			}
			return false // the .Sel side; the base identifier is judged separately
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p // x[i]: keep climbing — x[i] = v writes x
				continue
			}
			return false // used as an index
		case *ast.SliceExpr:
			if p.X == cur {
				cur = p
				continue
			}
			return false
		case *ast.StarExpr:
			cur = p // *x = v writes through x
			continue
		case *ast.UnaryExpr:
			return p.Op == token.AND // &x escapes; assume mutation
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == exprOf(cur) {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == exprOf(cur)
		case *ast.RangeStmt:
			return p.Key == exprOf(cur) || p.Value == exprOf(cur)
		default:
			return false
		}
	}
}
