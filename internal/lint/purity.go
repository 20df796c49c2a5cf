package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// purity proves that functions marked //lint:pure — the tuner's cache-key
// canonicalizers and the α/β cost pricer — are transitively free of the
// three effects that would make a cache key or a price depend on anything
// but its inputs:
//
//   - wall-clock reads (time.Now and friends, as detnow judges them),
//   - process-global randomness (unseeded math/rand),
//   - map iteration with order-dependent effects (an encoder that walks
//     a map in randomized order produces a different key per run).
//
// The proof is a DFS over the call graph from each root. Stdlib callees
// are assumed pure (the effects above are only reachable through the
// time/math-rand packages, which the local facts catch at the call site);
// an in-module callee whose body is not in the loaded program — or a
// dynamic call through a function value or interface — cannot be proven
// and is reported as such. The fix is to load the missing package or
// restructure the root to avoid the dynamic hop.
var purityPass = &Pass{
	Name:  "purity",
	Doc:   "//lint:pure roots must be transitively free of time, global randomness, and map-order effects",
	Scope: scopeInternal,
}

func init() { purityPass.RunProgram = runPurity }

// purityFacts is one function's local effect set plus the callees a proof
// must recurse into.
type purityFacts struct {
	// effects are this function's own impure acts, rendered for the
	// diagnostic ("calls time.Now", "ranges over a map with ordered
	// effects"), in source order.
	effects []string
	// unprovable are calls whose target cannot be resolved to a body in
	// the program but belongs to the loaded module, rendered for the
	// diagnostic. Stdlib and dynamic calls are not listed.
	unprovable []string
}

// hasPureDirective reports whether fi's doc comment, or any comment on
// the line directly above its declaration, is //lint:pure.
func hasPureDirective(fi *FuncInfo) bool {
	if fi.Decl.Doc != nil {
		for _, c := range fi.Decl.Doc.List {
			if parseDirective(c.Text).kind == directivePure {
				return true
			}
		}
	}
	decl := fi.Unit.Fset.Position(fi.Decl.Pos())
	for _, f := range fi.Unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fi.Unit.Fset.Position(c.Pos())
				if pos.Filename == decl.Filename && pos.Line == decl.Line-1 &&
					parseDirective(c.Text).kind == directivePure {
					return true
				}
			}
		}
	}
	return false
}

func runPurity(p *Program) []Diagnostic {
	var out []Diagnostic
	for _, root := range p.Funcs {
		if !hasPureDirective(root) || !applies(purityPass, root.Unit.Path) {
			continue
		}
		visiting := map[*FuncInfo]bool{}
		if msg := p.impurityOf(root, visiting, nil); msg != "" {
			out = append(out, diag(root.Unit, root.Decl.Name, "purity",
				"%s is marked //lint:pure but %s", root.Obj.Name(), msg))
		}
	}
	return out
}

// impurityOf returns a rendered impurity ("calls time.Now via Encode ->
// stamp") for fi or any function it transitively calls, or "" when the
// whole call tree is provably pure. path carries the call chain from the
// root for the message; visiting breaks recursion cycles (a cycle adds no
// effects beyond its members' own, all of which are checked).
func (p *Program) impurityOf(fi *FuncInfo, visiting map[*FuncInfo]bool, path []string) string {
	if visiting[fi] {
		return ""
	}
	visiting[fi] = true

	facts := p.factsOf(fi)
	via := ""
	if len(path) > 0 {
		via = " (via " + strings.Join(path, " -> ") + ")"
	}
	if len(facts.effects) > 0 {
		return fmt.Sprintf("%s%s", facts.effects[0], via)
	}
	if len(facts.unprovable) > 0 {
		return fmt.Sprintf("calls %s, whose body is outside the loaded program, so purity cannot be proven%s",
			facts.unprovable[0], via)
	}
	for _, callee := range fi.Callees {
		if msg := p.impurityOf(callee, visiting, append(path, callee.Obj.Name())); msg != "" {
			return msg
		}
	}
	return ""
}

// factsOf computes (lazily, once) one function's local purity facts.
func (p *Program) factsOf(fi *FuncInfo) *purityFacts {
	if fi.facts != nil {
		return fi.facts
	}
	u := fi.Unit
	facts := &purityFacts{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch pkg, name := nondet(u, n); pkg {
			case "time":
				facts.effects = append(facts.effects, "calls time."+name)
			case "rand":
				facts.effects = append(facts.effects, "uses the process-global rand."+name)
			}
		case *ast.RangeStmt:
			tv, ok := u.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if why := mapBodyEffect(u, n, fi.Decl.Body); why != "" {
				facts.effects = append(facts.effects, "ranges over a map and "+why)
			}
		case *ast.CallExpr:
			fn := staticCallee(u, n)
			if fn == nil {
				return true // dynamic call: not judged (documented approximation)
			}
			if p.declOf(fn) != nil {
				return true // in the index: the DFS recurses into it
			}
			if p.InProgramPackage(fn) {
				facts.unprovable = append(facts.unprovable, fn.FullName())
			}
			// Stdlib / external: assumed pure; impure stdlib entry points
			// are exactly the time/rand selectors caught above.
		}
		return true
	})
	fi.facts = facts
	return facts
}
