package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// loadProgram loads one fixture directory and builds its Program.
func loadProgram(t *testing.T, dir string) *Program {
	t.Helper()
	units, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return BuildProgram(units)
}

// funcNamed finds the unique indexed function whose key ends in name.
func funcNamed(t *testing.T, p *Program, name string) *FuncInfo {
	t.Helper()
	var found *FuncInfo
	for _, fi := range p.Funcs {
		if strings.HasSuffix(fi.Key, name) {
			if found != nil {
				t.Fatalf("two functions match %q: %s and %s", name, found.Key, fi.Key)
			}
			found = fi
		}
	}
	if found == nil {
		t.Fatalf("no function %q in program (have %v)", name, keys(p.Funcs))
	}
	return found
}

func keys(fs []*FuncInfo) []string {
	out := make([]string, len(fs))
	for i, fi := range fs {
		out[i] = fi.Key
	}
	return out
}

func callsTo(fi *FuncInfo, name string) bool {
	for _, c := range fi.Callees {
		if strings.HasSuffix(c.Key, name) {
			return true
		}
	}
	return false
}

// TestCallGraphRecursion: direct recursion keeps its self-edge, and the
// two-function shuffle cycle in the waitpair fixture closes both ways.
func TestCallGraphRecursion(t *testing.T) {
	p := loadProgram(t, "testdata/src/program")
	fact := funcNamed(t, p, ".fact")
	if !callsTo(fact, ".fact") {
		t.Errorf("fact's self-edge missing: callees = %v", keys(fact.Callees))
	}

	wp := loadProgram(t, "testdata/src/waitpair")
	a, b := funcNamed(t, wp, ".shuffleA"), funcNamed(t, wp, ".shuffleB")
	if !callsTo(a, ".shuffleB") || !callsTo(b, ".shuffleA") {
		t.Errorf("shuffle cycle not closed: A->%v, B->%v", keys(a.Callees), keys(b.Callees))
	}
}

// TestCallGraphMethodValue: referencing a method as a value records a
// conservative edge even though no call expression exists.
func TestCallGraphMethodValue(t *testing.T) {
	p := loadProgram(t, "testdata/src/program")
	umv := funcNamed(t, p, ".useMethodValue")
	if !callsTo(umv, ".Greet") {
		t.Errorf("method-value reference to Greet not recorded: %v", keys(umv.Callees))
	}
}

// TestCapturesLoopVariable: the closure in loopCaptures writes the outer
// accumulator and reads the per-iteration loop variable; the capture
// analysis must see both, classify the write, and place the loop
// variable's declaration inside the loop (Go's per-iteration semantics).
func TestCapturesLoopVariable(t *testing.T) {
	p := loadProgram(t, "testdata/src/program")
	lc := funcNamed(t, p, ".loopCaptures")

	var fl *ast.FuncLit
	var loop ast.Node
	ast.Inspect(lc.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loop = n
		case *ast.FuncLit:
			fl = n
		}
		return true
	})
	if fl == nil || loop == nil {
		t.Fatal("fixture lost its closure or loop")
	}

	caps := capturesOf(lc.Unit, fl, lc.parents)
	byName := map[string]*capture{}
	for _, c := range caps {
		byName[c.obj.Name()] = c
	}
	sum, i := byName["sum"], byName["i"]
	if sum == nil || i == nil {
		t.Fatalf("want captures sum and i, got %v", byName)
	}
	if !sum.written {
		t.Error("sum += i inside the closure must classify as a write")
	}
	if i.written {
		t.Error("i is only read inside the closure; must not classify as a write")
	}
	if insideNode(sum.obj.Pos(), loop) {
		t.Error("sum is declared outside the loop (shared across closures)")
	}
	if !insideNode(i.obj.Pos(), loop) {
		t.Error("i is the loop variable: its declaration must sit inside the loop (per-iteration)")
	}
}

// TestWaitpairSummaries pins the interprocedural verdicts on the
// waitpair fixture helpers: producers return requests, consumers prove
// their parameter reaches a Wait, inspectors and no-wait cycles stay
// unproven.
func TestWaitpairSummaries(t *testing.T) {
	p := loadProgram(t, "testdata/src/waitpair")
	cases := []struct {
		fn           string
		returnsAny   bool
		param        int // request parameter index, -1 to skip
		wantConsumed bool
	}{
		{".postOne", true, -1, false},
		{".postPair", true, -1, false},
		{".postGroup", true, -1, false},
		{".waitOn", false, 1, true},
		{".relay", false, 1, true},
		{".peek", false, 0, false},
		{".shuffleA", false, 1, false},
		{".shuffleB", false, 1, false},
		{".drain", false, 1, true},
	}
	for _, c := range cases {
		fi := funcNamed(t, p, c.fn)
		sum := p.summaryOf(fi)
		if sum.returnsAny != c.returnsAny {
			t.Errorf("%s: returnsAny = %v, want %v", c.fn, sum.returnsAny, c.returnsAny)
		}
		if c.param < 0 {
			continue
		}
		if !sum.reqParam[c.param] {
			t.Errorf("%s: param %d not recognized as request-typed", c.fn, c.param)
			continue
		}
		if sum.paramConsumed[c.param] != c.wantConsumed {
			t.Errorf("%s: paramConsumed[%d] = %v, want %v", c.fn, c.param, sum.paramConsumed[c.param], c.wantConsumed)
		}
	}
}
