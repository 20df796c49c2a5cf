package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one parsed, type-checked package: the input to the unit
// passes and the building block of a Program.
type Unit struct {
	Fset  *token.FileSet
	Path  string // import path
	Dir   string
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// Load parses and type-checks every package named by the patterns and
// returns one Unit per package. A pattern is either a directory or a
// `dir/...` walk; walks skip testdata, hidden, and underscore
// directories (matching the go tool), while naming a testdata directory
// explicitly loads it — that is how the fixture suite feeds the driver.
// Test files are never loaded: the invariants govern shipped simulator
// code, and tests legitimately use wall-clock timeouts and literals.
func Load(patterns []string) ([]*Unit, error) {
	dirs, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, units: map[string][]*Unit{}}
	// The source importer type-checks the stdlib from source, so the
	// loader needs nothing but the go/* stdlib packages.
	l.src = importer.ForCompiler(l.fset, "source", nil)
	var paths []string
	for _, dir := range dirs {
		path, root, mod, err := importPath(dir)
		if err != nil {
			return nil, err
		}
		if l.mod == "" {
			l.root, l.mod = root, mod
		}
		if _, dup := l.dirs[path]; !dup {
			l.dirs[path] = dir
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	var units []*Unit
	for _, path := range paths {
		us, err := l.load(path)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// A loader is the importer of its own type checks, so every package of
// the module is checked once, the first time it is named or imported,
// and every importer sees that one *types.Package. Only the named
// packages become Units.
type loader struct {
	fset      *token.FileSet
	src       types.Importer     // packages outside the module
	root, mod string             // the module of the first named package
	dirs      map[string]string  // import path -> directory, of every module package met
	units     map[string][]*Unit // checked packages by import path
	stack     []string           // packages being checked, outermost first
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		// An in-module package the patterns do not name is checked here
		// too: through the source importer it would be a second copy of
		// every named package it imports, and its types would not match
		// theirs.
		rest, ok := strings.CutPrefix(path+"/", l.mod+"/")
		if dir := filepath.Join(l.root, rest); ok && hasGoFiles(dir) {
			l.dirs[path] = dir
		} else {
			return l.src.Import(path)
		}
	}
	us, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if len(us) > 1 {
		return nil, fmt.Errorf("lint: found packages %s and %s in %s", us[0].Pkg.Name(), us[1].Pkg.Name(), us[0].Dir)
	}
	return us[0].Pkg, nil
}

// load returns the units of one package, checking it first if no
// earlier import has. The stack refuses an import cycle, which would
// otherwise recurse until the goroutine stack overflows.
func (l *loader) load(path string) ([]*Unit, error) {
	if us, ok := l.units[path]; ok {
		return us, nil
	}
	for i, p := range l.stack {
		if p == path {
			return nil, fmt.Errorf("lint: import cycle: %s", strings.Join(append(l.stack[i:], path), " -> "))
		}
	}
	l.stack = append(l.stack, path)
	us, err := loadDir(l.fset, l, l.dirs[path], path)
	l.stack = l.stack[:len(l.stack)-1]
	if err == nil {
		l.units[path] = us
	}
	return us, err
}

// expand resolves `/...` patterns into the list of directories that
// contain at least one non-test Go file.
func expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, walk := strings.CutSuffix(pat, "/...")
		if !walk {
			if hasGoFiles(pat) {
				add(pat)
				continue
			}
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walking %s: %w", pat, err)
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() &&
			strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses the non-test files of one directory and type-checks
// them as the package at import path.
func loadDir(fset *token.FileSet, imp types.Importer, dir, path string) ([]*Unit, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %w", dir, err)
	}
	var units []*Unit
	// A directory holds at most one non-test package in a healthy tree,
	// but check whatever the parser found so a stray duplicate package
	// clause surfaces as a type error rather than silence.
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		apkg := pkgs[name]
		files := make([]*ast.File, 0, len(apkg.Files))
		fnames := make([]string, 0, len(apkg.Files))
		for fname := range apkg.Files {
			fnames = append(fnames, fname)
		}
		sort.Strings(fnames)
		for _, fname := range fnames {
			files = append(files, apkg.Files[fname])
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
		}
		units = append(units, &Unit{
			Fset: fset, Path: path, Dir: dir, Files: files, Info: info, Pkg: tpkg,
		})
	}
	return units, nil
}

// importPath derives a directory's import path from the enclosing
// module's go.mod, and returns that module's root directory and path.
func importPath(dir string) (path, root, mod string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for root = abs; ; root = filepath.Dir(root) {
		if data, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
			if mod = modulePath(data); mod == "" {
				return "", "", "", fmt.Errorf("lint: no module line in %s/go.mod", root)
			}
			rel, err := filepath.Rel(root, abs)
			if err != nil || rel == "." {
				return mod, root, mod, err
			}
			return mod + "/" + filepath.ToSlash(rel), root, mod, nil
		}
		if filepath.Dir(root) == root {
			return "", "", "", fmt.Errorf("lint: %s is not inside a Go module", dir)
		}
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}
