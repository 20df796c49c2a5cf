package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unreached reports every function of the loaded tree that no root of the
// program reaches through the call graph. The roots are
//
//   - every main and init;
//   - every function a package-level declaration refers to (a registry
//     table, a handler map, a var initialised by a call);
//   - the exported functions and methods of a package that is neither
//     internal nor main — the library surface outside users can call;
//   - every method whose name is a method of some interface type in the
//     program or its imports: rapid type analysis matched by name, since
//     a call through an interface has no static target.
//
// Tests are not roots: a function only a test calls is dead to the
// program. The pass judges only a whole-module load (see wholeModule) or
// its own fixture; on a subset its roots are missing, so it does not run
// there and its suppressions are not audited.
var unreachedPass = &Pass{
	Name:  "unreached",
	Doc:   "every function is reached from a main, init, package-level value, library export or interface method",
	Scope: func(string) bool { return false }, // only the fixtures; a whole-module load is judged by wholeModule
	Whole: true,
}

func init() { unreachedPass.RunProgram = runUnreached }

func runUnreached(p *Program) []Diagnostic {
	ifaces := interfaceMethodNames(p.Units)
	reached := map[*FuncInfo]bool{}
	var work []*FuncInfo
	mark := func(fi *FuncInfo) {
		if fi != nil && !reached[fi] {
			reached[fi] = true
			work = append(work, fi)
		}
	}
	for _, fi := range p.Funcs {
		if isRoot(fi, ifaces) {
			mark(fi)
		}
	}
	for _, u := range p.Units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							fn, _ := u.Info.Uses[id].(*types.Func)
							mark(p.declOf(fn))
						}
						return true
					})
				}
			}
		}
	}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range fi.Callees {
			mark(c)
		}
	}
	var out []Diagnostic
	for _, fi := range p.Funcs {
		if !reached[fi] {
			out = append(out, diag(fi.Unit, fi.Decl, "unreached",
				"%s is reached from no main, init, package-level value, library export or interface method", fi.Key))
		}
	}
	return out
}

// isRoot reports whether fi is a root by its own declaration. A library
// package is one code outside the module can import.
func isRoot(fi *FuncInfo, ifaces map[string]bool) bool {
	name, pkg := fi.Obj.Name(), fi.Unit.Pkg
	library := pkg.Name() != "main" && !strings.Contains("/"+pkg.Path()+"/", "/internal/")
	switch {
	case fi.Obj.Exported() && library:
		return true
	case fi.Decl.Recv != nil:
		return ifaces[name]
	}
	return name == "init" || name == "main" && pkg.Name() == "main"
}

// interfaceMethodNames collects the method names of every interface type
// the program's expressions mention and of every named interface type in
// the packages the program imports, transitively (fmt.Stringer, error,
// sort.Interface, http.Handler, …).
func interfaceMethodNames(units []*Unit) map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, u := range units {
		for _, tv := range u.Info.Types {
			add(tv.Type)
		}
		visit(u.Pkg)
	}
	return names
}

// wholeModule reports whether units are the whole module: its root
// package and every package directory under it, as `./...` run at the
// root loads them. Only such a load holds every main and init.
func wholeModule(units []*Unit) bool {
	loaded := map[string]bool{}
	root := ""
	for _, u := range units {
		loaded[u.Dir] = true
		if u.Path == moduleOf(u.Path) {
			root = u.Dir
		}
	}
	if root == "" {
		return false
	}
	dirs, err := expand([]string{root + "/..."})
	if err != nil {
		return false
	}
	for _, d := range dirs {
		if !loaded[d] {
			return false
		}
	}
	return true
}
