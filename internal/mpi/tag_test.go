package mpi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// phaseTable reads the Phase ids of tag.go from source, so an id added
// to the table is checked without being listed again here.
func phaseTable(t *testing.T) map[string]int {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "tag.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]int{}
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Phase") {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.INT {
					t.Fatalf("%s is not an integer literal", name.Name)
				}
				v, err := strconv.Atoi(lit.Value)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				ids[name.Name] = v
			}
		}
	}
	return ids
}

func TestPhaseIdsAreDistinct(t *testing.T) {
	ids := phaseTable(t)
	if len(ids) == 0 {
		t.Fatal("tag.go declares no Phase ids")
	}
	owner := map[int]string{}
	for name, v := range ids {
		if v < 0 || v > 31 {
			t.Errorf("%s = %d is outside Tag's five bits [0, 31]", name, v)
		}
		if prev, dup := owner[v]; dup {
			t.Errorf("%s and %s share phase id %d", prev, name, v)
		}
		owner[v] = name
	}
}

// TestEveryTagTakesATablePhase: outside tests, every call of mpi.Tag in
// the module passes one of the table's Phase ids, so no package chooses
// its own.
func TestEveryTagTakesATablePhase(t *testing.T) {
	ids := phaseTable(t)
	mpiSel := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mpi" {
				return sel.Sel.Name
			}
		}
		return ""
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || n == "benchmark" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil || !strings.Contains(string(src), "mpi.Tag(") {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 || mpiSel(call.Fun) != "Tag" {
				return true
			}
			arg := call.Args[1]
			if _, ok := ids[mpiSel(arg)]; !ok {
				t.Errorf("%s: Tag's phase is %s, not an id of tag.go's table",
					fset.Position(arg.Pos()), src[fset.Position(arg.Pos()).Offset:fset.Position(arg.End()).Offset])
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
