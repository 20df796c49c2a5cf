package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// locklint proves lock discipline in the two packages that mix mutexes
// with heavy work: the tuner (cache + singleflight around synthesis) and
// the cluster harness (error collection across rank bodies). Two rules:
//
//   - every sync.Mutex/RWMutex Lock acquires an unlock on all paths out
//     of the function — an explicit Unlock before each return, or a
//     deferred one;
//   - no lock is held across a simulation or synthesis call (Simulate,
//     SimulateHealth, Synthesize): those run for simulated hours and
//     serialize every other caller behind the mutex, which is exactly
//     the singleflight-outside-the-lock design rule in the tuner.
//
// The analysis interprets each function body statement by statement with
// a held-lock set: both arms of an if are interpreted and merged, arms
// that terminate (return) drop out of the merge, and defer of an unlock
// marks the lock satisfied for every later exit. Loops are interpreted
// for their findings but assumed lock-balanced; locks are keyed by the
// rendered receiver expression (s.mu), so aliasing a mutex through a
// second name defeats the pairing — don't do that.
var locklintPass = &Pass{
	Name:  "locklint",
	Doc:   "mutexes unlock on all paths and are never held across simulation/synthesis calls",
	Scope: scopeIn("internal/tuner", "internal/cluster"),
}

func init() { locklintPass.RunProgram = runLocklint }

// locklintHeavy names the calls that must not run under a lock.
var locklintHeavy = map[string]bool{
	"Simulate": true, "SimulateHealth": true, "Synthesize": true,
}

// lockEvent classifies one call as a lock-state transition.
type lockEvent int

const (
	lockNone lockEvent = iota
	lockAcquire
	lockRelease
)

// lockCall resolves a call to a lock transition on a key. Only the
// methods of sync.Mutex and sync.RWMutex count (including promoted ones
// on embedding structs); the key is the rendered receiver expression
// plus a read-mode marker, so Lock pairs Unlock and RLock pairs RUnlock.
func lockCall(u *Unit, call *ast.CallExpr) (lockEvent, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockNone, ""
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone, ""
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return lockAcquire, key
	case "Unlock":
		return lockRelease, key
	case "RLock":
		return lockAcquire, key + " (read)"
	case "RUnlock":
		return lockRelease, key + " (read)"
	}
	return lockNone, ""
}

// lockState is the abstract state at one program point: which locks are
// held (keyed by rendered receiver, value = acquisition site) and which
// have a deferred unlock pending.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// sortedHeld returns the held-lock keys in deterministic order.
func (s *lockState) sortedHeld() []string {
	keys := make([]string, 0, len(s.held))
	for k := range s.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockChecker interprets one function body.
type lockChecker struct {
	u    *Unit
	out  []Diagnostic
	seen map[string]bool // dedup: one finding per (pos, message)
}

func (c *lockChecker) report(pos token.Pos, format string, args ...interface{}) {
	d := diag(c.u, fakeNode(pos), "locklint", format, args...)
	key := d.String()
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.out = append(c.out, d)
}

// fakeNode wraps a position as an ast.Node for diag.
type posNode token.Pos

func (p posNode) Pos() token.Pos { return token.Pos(p) }
func (p posNode) End() token.Pos { return token.Pos(p) }

func fakeNode(p token.Pos) ast.Node { return posNode(p) }

func runLocklint(p *Program) []Diagnostic {
	var out []Diagnostic
	for _, fi := range p.Funcs {
		if !applies(locklintPass, fi.Unit.Path) {
			continue
		}
		c := &lockChecker{u: fi.Unit, seen: map[string]bool{}}
		state := newLockState()
		terminated := c.block(fi.Decl.Body, state)
		if !terminated {
			c.atExit(fi.Decl.Body.Rbrace, state)
		}
		out = append(out, c.out...)
	}
	return out
}

// atExit reports locks still held (and not deferred) at a function exit.
func (c *lockChecker) atExit(pos token.Pos, s *lockState) {
	for _, k := range s.sortedHeld() {
		if s.deferred[k] {
			continue
		}
		c.report(s.held[k],
			"lock %s is acquired here but not released on the path reaching line %d; unlock on every path or defer the unlock",
			k, c.u.Fset.Position(pos).Line)
	}
}

// block interprets a statement list, mutating s in place. Returns true
// when the block definitely terminates (returns or panics) before its
// end.
func (c *lockChecker) block(b *ast.BlockStmt, s *lockState) bool {
	for _, st := range b.List {
		if c.stmt(st, s) {
			return true
		}
	}
	return false
}

// stmt interprets one statement. Returns true when it terminates the
// enclosing function.
func (c *lockChecker) stmt(st ast.Stmt, s *lockState) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		c.expr(st.X, s)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			c.expr(rhs, s)
		}
	case *ast.DeclStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				c.expr(call, s)
				return false
			}
			return true
		})
	case *ast.DeferStmt:
		if ev, key := lockCall(c.u, st.Call); ev == lockRelease {
			s.deferred[key] = true
			return false
		}
		// defer func() { mu.Unlock() }() — scan the literal's body.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if ev, key := lockCall(c.u, call); ev == lockRelease {
						s.deferred[key] = true
					}
				}
				return true
			})
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.expr(r, s)
		}
		c.atExit(st.Pos(), s)
		return true
	case *ast.BranchStmt:
		// break/continue/goto: leave the lock state alone; the loop
		// approximation below absorbs the imprecision.
	case *ast.BlockStmt:
		return c.block(st, s)
	case *ast.IfStmt:
		if st.Init != nil {
			c.stmt(st.Init, s)
		}
		c.expr(st.Cond, s)
		thenS, elseS := s.clone(), s.clone()
		thenT := c.block(st.Body, thenS)
		elseT := false
		if st.Else != nil {
			elseT = c.stmt(st.Else, elseS)
		}
		switch {
		case thenT && elseT:
			return true
		case thenT:
			*s = *elseS
		case elseT:
			*s = *thenS
		default:
			// Both arms fall through: a lock is held after the if when
			// either arm holds it (conservative union; the release-in-
			// one-arm shape will be reported at the next exit).
			merged := thenS
			for k, v := range elseS.held {
				if _, ok := merged.held[k]; !ok {
					merged.held[k] = v
				}
			}
			for k := range elseS.deferred {
				merged.deferred[k] = true
			}
			*s = *merged
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init, s)
		}
		if st.Cond != nil {
			c.expr(st.Cond, s)
		}
		body := s.clone()
		c.block(st.Body, body) // findings inside still surface; state assumed balanced
	case *ast.RangeStmt:
		c.expr(st.X, s)
		body := s.clone()
		c.block(st.Body, body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init, s)
		}
		if st.Tag != nil {
			c.expr(st.Tag, s)
		}
		c.clauses(st.Body, s)
	case *ast.TypeSwitchStmt:
		c.clauses(st.Body, s)
	case *ast.SelectStmt:
		c.clauses(st.Body, s)
	case *ast.GoStmt:
		// The goroutine's lock activity is its own; gonosim polices the
		// go statement itself.
	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, s)
	}
	return false
}

// clauses interprets each case body from a copy of the entry state. The
// post-state keeps the entry state: case bodies are assumed balanced,
// like loop bodies, but every finding inside them still surfaces.
func (c *lockChecker) clauses(body *ast.BlockStmt, s *lockState) {
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		cs := s.clone()
		for _, st := range stmts {
			if c.stmt(st, cs) {
				break
			}
		}
	}
}

// expr scans an expression for lock transitions and heavy calls, in
// evaluation order.
func (c *lockChecker) expr(e ast.Expr, s *lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal's body runs when called, not here
		case *ast.CallExpr:
			for _, arg := range n.Args {
				c.expr(arg, s)
			}
			if ev, key := lockCall(c.u, n); ev != lockNone {
				switch ev {
				case lockAcquire:
					s.held[key] = n.Pos()
				case lockRelease:
					delete(s.held, key)
					delete(s.deferred, key)
				}
				return false
			}
			if id := calleeIdent(n); id != nil && locklintHeavy[id.Name] && len(s.held) > 0 {
				for _, k := range s.sortedHeld() {
					c.report(n.Pos(),
						"%s is called while %s is held; simulation and synthesis must run outside the lock (singleflight, then re-acquire to publish)",
						id.Name, k)
				}
			}
			return false
		}
		return true
	})
}
