package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// waitpair checks that every request returned by Isend/Irecv — or by a
// helper whose signature returns a request — reaches a Wait, a Waitall or
// a WaitInto, which completes a receive into a buffer. It
// is the static mirror of the teardown audit: VerifyTeardown catches a
// leaked receive only on the scenarios a campaign happens to run, while
// this pass rejects the code shape outright.
//
// The analysis is flow-approximate per function and interprocedural
// across them, via the call-graph summaries in summary.go:
//
//   - a request discarded at the call site (expression statement or
//     assignment to _) is always reported — whether it came from
//     Isend/Irecv or from a helper that returns a request;
//   - a request bound to a local that is never passed to Wait/Waitall,
//     never appended into a later-consumed slice, and never escapes
//     (return, store into a structure) is reported;
//   - a request passed to a helper in the loaded program is consumed
//     only if that helper's summary proves the parameter reaches a
//     Wait (directly or through further helpers); handing a request to
//     a helper that merely inspects it no longer counts;
//   - a request whose only waits sit inside conditionals that do not
//     dominate the post is reported as a may-leak, unless the guard
//     mentions the request itself (the `if req != nil { Wait }` idiom).
//
// Escapes out of the loaded program (stdlib calls, stores into
// structures, returns) are trusted: returns are re-checked at every
// call site through the returning function's summary.
var waitpairPass = &Pass{
	Name:  "waitpair",
	Doc:   "every Isend/Irecv or helper-returned request must reach a Wait/Waitall on all paths",
	Scope: scopeInternal,
}

func init() { waitpairPass.RunProgram = runWaitpairProgram }

func runWaitpairProgram(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, fi := range prog.Funcs {
		if !applies(waitpairPass, fi.Unit.Path) {
			continue
		}
		a := &reqAnalysis{u: fi.Unit, body: fi.Decl.Body, parents: fi.parents, prog: prog}
		out = append(out, a.run()...)
	}
	return out
}

type reqAnalysis struct {
	u       *Unit
	body    *ast.BlockStmt
	parents map[ast.Node]ast.Node
	prog    *Program
}

// buildParents maps every node under root to its syntactic parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// use classification for one identifier occurrence of a tracked request.
type useKind int

const (
	useInspect useKind = iota // read-only: comparison, field access, non-consuming helper
	useWait                   // passed to Wait/Waitall/WaitInto or a consuming helper
	useEscape                 // trusted escape: return, store, call outside the program
	useCarry                  // appended into a slice (consumed iff the slice is)
)

type use struct {
	id      *ast.Ident
	kind    useKind
	carrier types.Object // for useCarry: the slice appended into
	helper  string       // for useInspect via a helper: its name, for the message
}

// producer resolves a call to a request producer: Isend/Irecv by name,
// or any declared function whose signature returns a request. Returns the producer's display name and its
// request-typed result mask (nil when the call is not a producer).
func (a *reqAnalysis) producer(call *ast.CallExpr) (string, []bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if name := sel.Sel.Name; name == "Isend" || name == "Irecv" {
			return name, []bool{true}
		}
	}
	fi := a.prog.FuncAt(a.u, call)
	if fi == nil {
		return "", nil
	}
	sum := a.prog.summaryOf(fi)
	if !sum.returnsAny {
		return "", nil
	}
	return fi.Obj.Name(), sum.resultsReq
}

func (a *reqAnalysis) run() []Diagnostic {
	var out []Diagnostic
	ast.Inspect(a.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, results := a.producer(call)
		if results == nil {
			return true
		}
		switch parent := a.parents[call].(type) {
		case *ast.ExprStmt:
			out = append(out, diag(a.u, call, "waitpair",
				"result of %s is discarded; the request never reaches a Wait, so completion is unobserved", name))
		case *ast.AssignStmt:
			if len(parent.Rhs) == 1 && len(parent.Lhs) > 1 {
				// Tuple assignment: check each request-typed result's target.
				for i, lhs := range parent.Lhs {
					if i >= len(results) || !results[i] {
						continue
					}
					out = append(out, a.checkTarget(lhs, call, name)...)
				}
				break
			}
			out = append(out, a.checkTarget(assignTarget(parent, call), call, name)...)
		case *ast.ValueSpec:
			for i, v := range parent.Values {
				if v != ast.Expr(call) || i >= len(parent.Names) {
					continue
				}
				if obj := a.u.Info.ObjectOf(parent.Names[i]); obj != nil {
					if d, bad := a.checkProducer(obj, call, name); bad {
						out = append(out, d)
					}
				}
			}
		default:
			// Nested in another expression (Wait(p.Irecv(...)), append
			// arg, composite literal, return value): it escapes into the
			// surrounding expression, which takes responsibility.
		}
		return true
	})
	return out
}

// checkTarget reports on one assignment target receiving a produced
// request: blank targets always fire; plain locals are tracked.
func (a *reqAnalysis) checkTarget(lhs ast.Expr, call *ast.CallExpr, name string) []Diagnostic {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return []Diagnostic{diag(a.u, call, "waitpair",
				"result of %s is assigned to _; the request never reaches a Wait", name)}
		}
		obj := a.u.Info.ObjectOf(lhs)
		if obj != nil {
			if d, bad := a.checkProducer(obj, call, name); bad {
				return []Diagnostic{d}
			}
		}
	default:
		// Stored straight into a slice element, field, or map:
		// the container owns it now; trust the consumer.
	}
	return nil
}

// assignTarget returns the LHS expression matching call on the RHS of an
// assignment, or nil.
func assignTarget(as *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	for i, rhs := range as.Rhs {
		if rhs == ast.Expr(call) && i < len(as.Lhs) {
			return as.Lhs[i]
		}
	}
	return nil
}

// checkProducer inspects every use of obj after the producing call and
// decides whether the request provably reaches a wait.
func (a *reqAnalysis) checkProducer(obj types.Object, call *ast.CallExpr, name string) (Diagnostic, bool) {
	uses := a.usesOf(obj, call.End())
	definite, conditional, inspectedByHelper := false, false, false
	for _, us := range uses {
		consumed := false
		switch us.kind {
		case useWait, useEscape:
			consumed = true
		case useCarry:
			consumed = us.carrier != nil && a.carrierConsumed(us.carrier, us.id.End(), 0)
		case useInspect:
			if us.helper != "" {
				inspectedByHelper = true
			}
		}
		if !consumed {
			continue
		}
		if a.conditionalBetween(call, us.id, obj) {
			conditional = true
		} else {
			definite = true
		}
	}
	switch {
	case definite:
		return Diagnostic{}, false
	case conditional:
		return diag(a.u, call, "waitpair",
			"request from %s is waited only inside a conditional; a path can leave it un-waited (guard on the request itself, or wait unconditionally)", name), true
	case inspectedByHelper:
		return diag(a.u, call, "waitpair",
			"request from %s is handed only to helpers that never Wait on it (per their call-graph summaries); it never reaches a Wait/Waitall", name), true
	default:
		return diag(a.u, call, "waitpair",
			"request from %s is never passed to Wait/Waitall and never escapes this function", name), true
	}
}

// usesOf collects every classified occurrence of obj after pos.
func (a *reqAnalysis) usesOf(obj types.Object, pos token.Pos) []use {
	var uses []use
	ast.Inspect(a.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= pos || a.u.Info.ObjectOf(id) != obj {
			return true
		}
		uses = append(uses, a.classify(id))
		return true
	})
	return uses
}

// classify decides what one occurrence of a request variable does with
// the value, walking outward through wrapping expressions.
func (a *reqAnalysis) classify(id *ast.Ident) use {
	var cur ast.Node = id
	for {
		parent := a.parents[cur]
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p // container indexed; what happens to the element?
				continue
			}
			return use{id: id, kind: useInspect} // used as an index
		case *ast.SelectorExpr:
			if p.X == exprOf(cur) {
				if call, ok := a.parents[p].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					// Method call on the request itself: wrapper handles
					// (a nonblocking collective's) complete via their
					// own Wait method rather than p.Wait(req).
					if p.Sel.Name == "Wait" || p.Sel.Name == "Waitall" {
						return use{id: id, kind: useWait}
					}
				}
			}
			return use{id: id, kind: useInspect} // field read/write
		case *ast.CallExpr:
			callee := calleeIdent(p)
			if callee == nil {
				return use{id: id, kind: useEscape}
			}
			switch callee.Name {
			case "Wait", "Waitall", "WaitInto":
				return use{id: id, kind: useWait}
			case "append":
				if len(p.Args) > 0 && p.Args[0] == exprOf(cur) {
					return use{id: id, kind: useInspect} // the slice being grown
				}
				return use{id: id, kind: useCarry, carrier: a.appendTarget(p)}
			case "len", "cap":
				return use{id: id, kind: useInspect}
			default:
				return a.classifyHelperArg(id, p, exprOf(cur))
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.UnaryExpr:
			return use{id: id, kind: useEscape}
		case *ast.RangeStmt:
			if p.X == exprOf(cur) {
				// Ranged over: for request slices this is the classic
				// for-Wait loop; trust it.
				return use{id: id, kind: useWait}
			}
			return use{id: id, kind: useInspect}
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == exprOf(cur) {
					if allBlank(p.Lhs) {
						return use{id: id, kind: useInspect} // _ = v
					}
					return use{id: id, kind: useEscape} // aliased or stored
				}
			}
			return use{id: id, kind: useInspect} // appears on the LHS
		default:
			return use{id: id, kind: useInspect}
		}
	}
}

// classifyHelperArg resolves a request passed as a call argument through
// the callee's summary: a parameter proven to reach a Wait consumes the
// request; a request-typed parameter that provably never waits is mere
// inspection (the leak surfaces at this call site); anything unresolvable
// — dynamic calls, functions outside the loaded program — stays a
// trusted escape, preserving the old boundary behavior where the program
// cannot see.
func (a *reqAnalysis) classifyHelperArg(id *ast.Ident, call *ast.CallExpr, arg ast.Expr) use {
	fi := a.prog.FuncAt(a.u, call)
	if fi == nil {
		return use{id: id, kind: useEscape}
	}
	ai := findArg(call, arg)
	if ai < 0 {
		return use{id: id, kind: useEscape}
	}
	sig := fi.Obj.Type().(*types.Signature)
	pi, ok := argParamIndex(sig, ai)
	if !ok {
		return use{id: id, kind: useEscape}
	}
	sum := a.prog.summaryOf(fi)
	if !sum.reqParam[pi] {
		return use{id: id, kind: useEscape} // wrapped into interface{} etc: trusted
	}
	if sum.paramConsumed[pi] {
		return use{id: id, kind: useWait}
	}
	return use{id: id, kind: useInspect, helper: fi.Obj.Name()}
}

// appendTarget resolves append's destination to an object when it is a
// plain identifier (reqs = append(reqs, v)).
func (a *reqAnalysis) appendTarget(call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return a.u.Info.ObjectOf(id)
	}
	return nil
}

// carrierConsumed reports whether a slice that received requests is
// itself consumed (waited, ranged, passed on, or returned) after pos.
func (a *reqAnalysis) carrierConsumed(obj types.Object, pos token.Pos, depth int) bool {
	if depth > 2 {
		return false
	}
	for _, us := range a.usesOf(obj, pos) {
		switch us.kind {
		case useWait, useEscape:
			return true
		case useCarry:
			if us.carrier != nil && us.carrier != obj && a.carrierConsumed(us.carrier, us.id.End(), depth+1) {
				return true
			}
		}
	}
	return false
}

// conditionalBetween reports whether the path from a consuming use back
// up to the common ancestor with the producer crosses a conditional or
// loop boundary the producer is not inside — i.e. whether the wait can
// be skipped while the post still happens. An if whose condition
// mentions the request itself (req != nil) is treated as dominating.
func (a *reqAnalysis) conditionalBetween(producer *ast.CallExpr, consumer *ast.Ident, obj types.Object) bool {
	anc := map[ast.Node]bool{}
	for n := ast.Node(producer); n != nil; n = a.parents[n] {
		anc[n] = true
	}
	var child ast.Node = consumer
	for n := a.parents[consumer]; n != nil; n = a.parents[n] {
		if anc[n] {
			return false // reached the common ancestor cleanly
		}
		switch p := n.(type) {
		case *ast.IfStmt:
			if (child == ast.Node(p.Body) || child == p.Else) && !mentions(a.u, p.Cond, obj) {
				return true
			}
		case *ast.CaseClause, *ast.CommClause:
			return true
		case *ast.ForStmt:
			if child == ast.Node(p.Body) {
				return true // loop may run zero times
			}
		case *ast.RangeStmt:
			if child == ast.Node(p.Body) {
				return true
			}
		case *ast.FuncLit:
			return true // the closure may never run
		}
		child = n
	}
	return false
}

// mentions reports whether expr references obj.
func mentions(u *Unit, expr ast.Expr, obj types.Object) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && u.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, l := range lhs {
		if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// exprOf narrows an ast.Node known to be an expression.
func exprOf(n ast.Node) ast.Expr {
	e, _ := n.(ast.Expr)
	return e
}
