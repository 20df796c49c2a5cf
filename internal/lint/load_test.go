package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestLoadChecksEachPackageOnce: a package that is both named and
// imported is type-checked once, so its importer sees the unit's own
// *types.Package and a call resolves to the unit's own *types.Func.
func TestLoadChecksEachPackageOnce(t *testing.T) {
	units, err := Load([]string{"testdata/src/identity/a", "testdata/src/identity/b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("want units a and b, got %d", len(units))
	}
	a, b := units[0], units[1]
	if imps := b.Pkg.Imports(); len(imps) != 1 || imps[0] != a.Pkg {
		t.Errorf("b imports %v, want a's unit package %p", imps, a.Pkg)
	}
	var double *types.Func
	for id, obj := range a.Info.Defs {
		if id.Name == "Double" {
			double = obj.(*types.Func)
		}
	}
	calls := 0
	ast.Inspect(b.Files[0], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			calls++
			if fn := staticCallee(b, call); fn != double {
				t.Errorf("b's call resolves to %p, want a's Double %p", fn, double)
			}
		}
		return true
	})
	if double == nil || calls != 2 {
		t.Fatalf("fixture lost a.Double or b's two calls (%d)", calls)
	}
}

// TestLoadRefusesImportCycle: two packages that import each other are an
// error naming the cycle, not an unbounded recursion.
func TestLoadRefusesImportCycle(t *testing.T) {
	for _, patterns := range [][]string{
		{"testdata/src/cycle/a", "testdata/src/cycle/b"},
		{"testdata/src/cycle/b"},
	} {
		_, err := Load(patterns)
		if err == nil || !strings.Contains(err.Error(), "import cycle") ||
			!strings.Contains(err.Error(), "testdata/src/cycle/a") {
			t.Errorf("Load(%v) = %v, want an import cycle naming cycle/a", patterns, err)
		}
	}
}
