package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Waitpair's interprocedural half: per-function summaries over the call
// graph. A summary answers the two questions the intraprocedural pass
// used to punt on at function boundaries:
//
//   - does this function return a request its caller must wait on?
//   - does a request passed into this parameter provably reach a
//     Wait/Waitall inside (directly or through further helpers)?
//
// Consumption is a least fixpoint: a parameter starts unproven and is
// promoted to consumed when its uses reach a Wait, a trusted escape
// (return, store into a structure, a call outside the loaded program),
// or a parameter of another function already proven to consume. Cycles
// of helpers that hand a request around without ever waiting therefore
// stay unproven — and every call site into the cycle is reported.

// reqSummary is the waitpair summary of one declared function.
type reqSummary struct {
	// resultsReq marks which results are request-typed: a caller that
	// drops or never waits such a result leaks the request.
	resultsReq []bool
	// returnsAny is true when any result is request-typed.
	returnsAny bool
	// reqParam marks which parameters (receiver excluded) are
	// request-typed; only those have a consumption verdict.
	reqParam []bool
	// paramConsumed marks request-typed parameters proven to reach a
	// Wait/Waitall (or a trusted escape) inside the function.
	paramConsumed []bool
}

// isRequestType reports whether t is a request shape: a named type
// whose name is or ends in Request (mpi.Request, but also wrapper
// handles a nonblocking collective returns), a pointer to one, or a
// slice of either. Wrapper handles complete via their own Wait method,
// which classify recognizes alongside the p.Wait(req) form.
func isRequestType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return isRequestType(t.Elem())
	case *types.Slice:
		return isRequestType(t.Elem())
	case *types.Named:
		return strings.HasSuffix(t.Obj().Name(), "Request")
	}
	return false
}

// summaryOf returns fn's waitpair summary, computing the whole
// program's fixpoint on first use.
func (p *Program) summaryOf(fi *FuncInfo) *reqSummary {
	if fi.summary == nil {
		p.buildSummaries()
	}
	return fi.summary
}

// buildSummaries seeds every function's summary from its signature and
// iterates parameter consumption to a fixpoint.
func (p *Program) buildSummaries() {
	for _, fi := range p.Funcs {
		sig := fi.Obj.Type().(*types.Signature)
		s := &reqSummary{}
		for i := 0; i < sig.Results().Len(); i++ {
			isReq := isRequestType(sig.Results().At(i).Type())
			s.resultsReq = append(s.resultsReq, isReq)
			s.returnsAny = s.returnsAny || isReq
		}
		for i := 0; i < sig.Params().Len(); i++ {
			s.reqParam = append(s.reqParam, isRequestType(sig.Params().At(i).Type()))
			s.paramConsumed = append(s.paramConsumed, false)
		}
		fi.summary = s
	}
	// Least fixpoint: consumption only ever flips false -> true, so the
	// iteration terminates; the bound is belt and braces.
	for round := 0; round < 16; round++ {
		changed := false
		for _, fi := range p.Funcs {
			if p.refineSummary(fi) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// refineSummary recomputes parameter consumption for one function under
// the current summaries. Reports whether anything was promoted.
func (p *Program) refineSummary(fi *FuncInfo) bool {
	s := fi.summary
	sig := fi.Obj.Type().(*types.Signature)
	changed := false
	for i := 0; i < sig.Params().Len(); i++ {
		if !s.reqParam[i] || s.paramConsumed[i] {
			continue
		}
		obj := sig.Params().At(i)
		a := &reqAnalysis{u: fi.Unit, body: fi.Decl.Body, parents: fi.parents, prog: p}
		if a.objConsumed(obj, fi.Decl.Body.Pos()) {
			s.paramConsumed[i] = true
			changed = true
		}
	}
	return changed
}

// objConsumed reports whether any use of obj after pos consumes it:
// reaches a Wait, escapes somewhere trusted, or is carried through a
// slice that is itself consumed. Conditional consumption counts — a
// helper that waits on some path is treated as an owner; the caller-side
// all-paths discipline applies where the request is produced.
func (a *reqAnalysis) objConsumed(obj types.Object, pos token.Pos) bool {
	for _, us := range a.usesOf(obj, pos) {
		switch us.kind {
		case useWait, useEscape:
			return true
		case useCarry:
			if us.carrier != nil && a.carrierConsumed(us.carrier, us.id.End(), 0) {
				return true
			}
		}
	}
	return false
}

// argParamIndex maps a call argument position to the callee's parameter
// index, folding variadic tails onto the final parameter. ok is false
// when the position cannot be mapped.
func argParamIndex(sig *types.Signature, arg int) (int, bool) {
	n := sig.Params().Len()
	if n == 0 {
		return 0, false
	}
	if arg < n {
		return arg, true
	}
	if sig.Variadic() {
		return n - 1, true
	}
	return 0, false
}

// findArg returns the index of e in the call's argument list, or -1.
func findArg(call *ast.CallExpr, e ast.Expr) int {
	for i, arg := range call.Args {
		if arg == e {
			return i
		}
	}
	return -1
}
