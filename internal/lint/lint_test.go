package lint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestTreeIsClean is the library-level version of the CI gate: the
// shipped tree must lint clean under every pass. Running it from the
// package test keeps the gate active even where CI is not.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree type-check is slow; the CI Lint step covers it")
	}
	units, err := Load([]string{"../../..."})
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	for _, d := range Check(units, Passes()) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestUnreachedJudgesOnlyTheWholeModule: a load without the module root
// lacks the mains that reach most of sim, so the unreached pass does not
// run on it, and the //lint:ignore unreached directives in sim are not
// judged stale either.
func TestUnreachedJudgesOnlyTheWholeModule(t *testing.T) {
	units, err := Load([]string{"../sim"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Judging(Passes(), units) {
		if p == unreachedPass {
			t.Error("Judging keeps unreached on a load of one package")
		}
	}
	for _, d := range Check(units, []*Pass{unreachedPass, suppauditPass}) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestConfinedPackagesImportNoSync holds the confinement contract to its
// word: an engine, the MPI world on it and the recorder it traces into
// belong to one goroutine at a time, so no non-test file of sim, mpi or
// trace imports sync or sync/atomic. A lock there guards a concurrency the
// contract says does not exist.
func TestConfinedPackagesImportNoSync(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../sim", "../mpi", "../trace"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path == "sync" || strings.HasPrefix(path, "sync/") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

// TestExpandSkipsTestdata proves `...` walks never descend into fixture
// trees — otherwise the CI gate would trip over the firing fixtures.
func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 {
		t.Fatalf("expected just the lint package dir, got %v", dirs)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("walk descended into %s", d)
		}
	}
}

// TestSuppressionRequiresReason pins the directive contract on the
// gonosim fixture: the valid suppression in ok.go silences its finding,
// while bad.go's reason-less and unknown-pass directives are themselves
// reported and suppress nothing.
func TestSuppressionRequiresReason(t *testing.T) {
	units, err := Load([]string{"testdata/src/gonosim"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(units, []*Pass{gonosimPass})
	var fromOK, malformed, unknown, badGo int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Pos.Filename, "ok.go"):
			fromOK++
		case d.Pass == "lint" && strings.Contains(d.Message, "non-empty reason"):
			malformed++
		case d.Pass == "lint" && strings.Contains(d.Message, "unknown pass"):
			unknown++
		case d.Pass == "gonosim" && strings.Contains(d.Pos.Filename, "bad.go"):
			badGo++
		}
	}
	if fromOK != 0 {
		t.Errorf("valid suppression did not silence ok.go (got %d findings)", fromOK)
	}
	if malformed != 1 || unknown != 1 {
		t.Errorf("suppression hygiene: want 1 malformed + 1 unknown directive, got %d + %d", malformed, unknown)
	}
	if badGo != 2 {
		t.Errorf("invalid directives must not suppress: want 2 gonosim findings in bad.go, got %d", badGo)
	}
}

// TestCheckIsDeterministic runs the full suite twice over the fixture
// trees and demands identical output — the linter preaches determinism
// and must practice it.
func TestCheckIsDeterministic(t *testing.T) {
	render := func() string {
		units, err := Load([]string{"testdata/src/maporder", "testdata/src/waitpair"})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range Check(units, Passes()) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("two identical Check runs disagreed:\n%s\nvs\n%s", a, b)
	}
}

// TestScopes pins which packages each pass patrols: detnow and gonosim
// watch the simulator core, the resource-discipline passes cover all of
// internal/, and nothing chases the lint package or the facade.
func TestScopes(t *testing.T) {
	cases := []struct {
		pass *Pass
		path string
		want bool
	}{
		{detnowPass, "mha/internal/sim", true},
		{detnowPass, "mha/internal/collectives", true},
		{detnowPass, "mha/internal/bench", false},
		{detnowPass, "mha/internal/lint/testdata/src/detnow", true},
		{detnowPass, "mha/internal/fabric", true},
		{gonosimPass, "mha/internal/core", true},
		{gonosimPass, "mha/internal/fabric", true},
		{gonosimPass, "mha/internal/trace", false},
		{waitpairPass, "mha/internal/apps/stencil", true},
		{waitpairPass, "mha/internal/lint", false},
		{maporderPass, "mha/internal/machines", true},
		{railpinPass, "mha", false},
		{sharedstatePass, "mha/internal/cluster", true},
		{sharedstatePass, "mha/internal/lint", false},
		{purityPass, "mha/internal/tuner", true},
		{locklintPass, "mha/internal/tuner", true},
		{locklintPass, "mha/internal/cluster", true},
		{locklintPass, "mha/internal/sim", false},
		{suppauditPass, "mha/internal/lint", true},
		{unreachedPass, "mha/internal/sim", false},
		{unreachedPass, "mha/internal/lint/testdata/src/unreached", true},
		// The suppaudit fixture is in every pass's scope so its live
		// suppressions have findings to absorb.
		{detnowPass, "mha/internal/lint/testdata/src/suppaudit", true},
		{railpinPass, "mha/internal/lint/testdata/src/suppaudit", true},
	}
	for _, c := range cases {
		if got := applies(c.pass, c.path); got != c.want {
			t.Errorf("applies(%s, %s) = %v, want %v", c.pass.Name, c.path, got, c.want)
		}
	}
}
