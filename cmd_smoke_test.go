package mha_test

// End-to-end smoke tests: build every binary once and drive each through
// a representative invocation, asserting on its observable output.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var buildOnce sync.Once
var binDir string
var buildErr error

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "mha-bins")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/...")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building binaries: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// mhaExit runs mha with args and returns its combined output and exit
// status, failing the test only when the binary cannot be run at all.
func mhaExit(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), args...)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("mha %v: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// mhaTools is every tool the mha binary must dispatch to.
var mhaTools = []string{"bench", "cluster", "compose", "explore", "fabric", "fault",
	"lint", "model", "osu", "sched", "trace", "verify"}

func TestSmokeMhaDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuch"}} {
		out, code := mhaExit(t, args...)
		if code != 2 {
			t.Errorf("mha %v exited %d, want 2:\n%s", args, code, out)
		}
		for _, name := range mhaTools {
			if !strings.Contains(out, "\n  "+name+" ") {
				t.Errorf("mha %v usage does not list %s:\n%s", args, name, out)
			}
		}
	}
	for _, name := range mhaTools {
		if out, code := mhaExit(t, name, "-h"); code != 0 {
			t.Errorf("mha %s -h exited %d, want 0:\n%s", name, code, out)
		}
	}
	for _, name := range []string{"sched", "compose", "cluster", "fabric", "osu"} {
		if out, code := mhaExit(t, name, "nosuch"); code != 2 || !strings.Contains(out, `unknown subcommand "nosuch"`) {
			t.Errorf("mha %s nosuch exited %d, want 2 naming the subcommand:\n%s", name, code, out)
		}
	}
}

// TestSmokeMhaBadShapeIsAnError: every tool that takes a machine shape
// refuses an empty one with topology's one-line diagnostic, not a panic.
// explore reports it as a failed run (1); the rest as a bad command line
// (2). So does compose for a socket count the ppn does not divide.
func TestSmokeMhaBadShapeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"sched", "build"}, 2},
		{[]string{"compose", "lower", "-coll", "allgather"}, 2},
		{[]string{"cluster", "run"}, 2},
		{[]string{"model"}, 2},
		{[]string{"osu", "latency"}, 2},
		{[]string{"fabric", "describe"}, 2},
		{[]string{"fault"}, 2},
		{[]string{"explore"}, 1},
		{[]string{"trace"}, 2},
	} {
		for _, bad := range []struct{ flag, want string }{
			{"-nodes", "topology: Nodes: need at least 1 node, have 0"},
			{"-hcas", "topology: HCAs: need at least 1 HCA per node, have 0"},
		} {
			args := append(append([]string(nil), tc.args...), bad.flag, "0")
			out, code := mhaExit(t, args...)
			if code != tc.code || strings.Count(out, "\n") != 1 || !strings.Contains(out, bad.want) ||
				strings.Contains(out, "goroutine") {
				t.Errorf("mha %v exited %d, want %d and one line with %q:\n%s", args, code, tc.code, bad.want, out)
			}
		}
	}
	// A repro line whose world fits an int but no machine is refused at
	// parse time.
	args := []string{"verify", "-repro", "alg=ring nodes=3037000499 ppn=3037000499"}
	const want = "9223372030926249001 ranks exceeds the 1024-rank scenario limit"
	if out, code := mhaExit(t, args...); code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, want) ||
		strings.Contains(out, "goroutine") {
		t.Errorf("mha %v exited %d, want 2 and one line with %q:\n%s", args, code, want, out)
	}
	// compose's -sockets is checked against the shape it divides.
	for _, sub := range []string{"lower", "analyze"} {
		args := []string{"compose", sub, "-coll", "allgather", "-nodes", "2", "-ppn", "4", "-sockets", "3"}
		const want = "topology: Sockets: PPN 4 not divisible by 3 sockets"
		out, code := mhaExit(t, args...)
		if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, want) || strings.Contains(out, "goroutine") {
			t.Errorf("mha %v exited %d, want 2 and one line with %q:\n%s", args, code, want, out)
		}
	}
}

func TestSmokeMhabenchList(t *testing.T) {
	out := run(t, "mha", "bench", "-list")
	for _, id := range []string{"14b", "17c", "abl-overlap", "ext-numa"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
}

func TestSmokeMhabenchRunsOneFigure(t *testing.T) {
	out := run(t, "mha", "bench", "-fig", "3", "-quick")
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "50%") {
		t.Fatalf("figure 3 output unexpected:\n%s", out)
	}
}

func TestSmokeMhatraceTimelineAndChrome(t *testing.T) {
	out := run(t, "mha", "trace", "-nodes", "2", "-ppn", "2")
	if !strings.Contains(out, "legend") || !strings.Contains(out, "rank") {
		t.Fatalf("timeline output unexpected:\n%s", out)
	}
	tmp := filepath.Join(t.TempDir(), "trace.json")
	out = run(t, "mha", "trace", "-alg", "mha", "-nodes", "2", "-ppn", "2", "-chrome", tmp)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("chrome export output unexpected:\n%s", out)
	}
	data, err := os.ReadFile(tmp)
	if err != nil || !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Fatalf("chrome trace file bad: %v, %.40q", err, data)
	}
	// Any registry row traces, with buffers sized for its collective.
	out = run(t, "mha", "trace", "-alg", "compose-a2a", "-nodes", "2", "-ppn", "2", "-size", "4096")
	if !strings.HasPrefix(out, "compose-a2a alltoall, 2 nodes x 2 ppn") || !strings.Contains(out, "legend") {
		t.Fatalf("alltoall timeline unexpected:\n%s", out)
	}
	// An end label wider than the chart runs past its edge.
	args := []string{"trace", "-alg", "rd", "-nodes", "8", "-ppn", "32", "-hcas", "2", "-size", "65536", "-width", "10"}
	if out, code := mhaExit(t, args...); code != 0 || strings.Contains(out, "goroutine") || !strings.Contains(out, "legend") {
		t.Fatalf("mha %v exited %d:\n%s", args, code, out)
	}
	// A shape outside the row's contract is refused, and an unknown name
	// lists the registry.
	for _, tc := range []struct{ alg, want string }{
		{"mha-intra", "verify: mha-intra does not support 2 nodes x 2 ppn"},
		{"mha-inter", "unknown algorithm \"mha-inter\" (have bruck, cluster-contended-2,"},
	} {
		cmd := exec.Command(filepath.Join(binaries(t), "mha"), "trace", "-alg", tc.alg, "-nodes", "2", "-ppn", "2")
		if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), tc.want) {
			t.Fatalf("mhatrace -alg %s: err %v, output %q, want %q", tc.alg, err, out, tc.want)
		}
	}
}

func TestSmokeMhamodel(t *testing.T) {
	out := run(t, "mha", "model", "-nodes", "4", "-ppn", "8", "-max", "65536")
	for _, want := range []string{"cost model", "Eq.1 d", "Eq.7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhamodel output missing %q:\n%s", want, out)
		}
	}
	out = run(t, "mha", "model", "-validate", "9", "-quick")
	if !strings.Contains(out, "Figure 9") {
		t.Fatalf("validation output unexpected:\n%s", out)
	}
}

func TestSmokeMhaosu(t *testing.T) {
	out := run(t, "mha", "osu", "latency", "-min", "1024", "-max", "4096")
	if !strings.Contains(out, "latency") || len(strings.Split(out, "\n")) < 4 {
		t.Fatalf("mhaosu latency output unexpected:\n%s", out)
	}
	out = run(t, "mha", "osu", "allgather", "-nodes", "2", "-ppn", "4", "-lib", "mha",
		"-min", "4096", "-max", "16384")
	if !strings.Contains(out, "MHA") {
		t.Fatalf("mhaosu allgather output unexpected:\n%s", out)
	}
}

func TestSmokeMhafaultResilienceTable(t *testing.T) {
	out := run(t, "mha", "fault", "-nodes", "2", "-ppn", "2", "-sizes", "64K",
		"-algs", "mha,ring", "-naive")
	for _, want := range []string{"resilience under the fault schedule",
		"aware vs naive", "per-rail utilization", "node0.rail1", "mha", "ring"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhafault output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeMhafaultAnyRow: mhafault runs a non-allgather registry row
// and refuses a row whose contract excludes the cluster.
func TestSmokeMhafaultAnyRow(t *testing.T) {
	out := run(t, "mha", "fault", "-nodes", "2", "-ppn", "2", "-sizes", "4K", "-algs", "compose-gather")
	if !strings.Contains(out, "compose-gather") {
		t.Fatalf("mhafault output missing compose-gather:\n%s", out)
	}
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "fault", "-nodes", "2", "-ppn", "3", "-algs", "multi-leader")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "multi-leader does not support") {
		t.Fatalf("odd ppn accepted for multi-leader: %v\n%s", err, out)
	}
}

func TestSmokeMhafaultSpecAndChrome(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "faults.txt")
	if err := os.WriteFile(spec, []byte("down node=0 rail=1 until=40us\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "trace.json")
	out := run(t, "mha", "fault", "-nodes", "2", "-ppn", "2", "-sizes", "32K",
		"-algs", "mha", "-spec", spec, "-chrome", tmp, "-timeline")
	if !strings.Contains(out, "legend") || !strings.Contains(out, "wrote") {
		t.Fatalf("mhafault trace output unexpected:\n%s", out)
	}
	data, err := os.ReadFile(tmp)
	if err != nil || !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Fatalf("chrome trace file bad: %v, %.40q", err, data)
	}
}

func TestSmokeMhafaultRejectsBadSpec(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "fault", "-inline", "explode node=0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bad spec accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown fault kind") {
		t.Fatalf("bad-spec diagnostic unexpected:\n%s", out)
	}
}

func TestSmokeMhaverifyCampaign(t *testing.T) {
	out := run(t, "mha", "verify", "-n", "25", "-seed", "42")
	for _, want := range []string{"verified 25 scenarios", "all scenarios passed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhaverify output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMhaverifyRepro(t *testing.T) {
	out := run(t, "mha", "verify", "-repro",
		"alg=mha nodes=2 ppn=2 hcas=2 msg=257 faults=down node=0 rail=1 until=40us")
	if !strings.Contains(out, "repro passed") {
		t.Fatalf("mhaverify -repro output unexpected:\n%s", out)
	}
	out = run(t, "mha", "verify", "-list")
	for _, want := range []string{"mha", "ring", "block-layout"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhaverify -list missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMhaverifyRejectsBadSpec(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "verify", "-repro", "alg=mha-intra nodes=2 ppn=2")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("contract-violating spec accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "does not support") {
		t.Fatalf("bad-spec diagnostic unexpected:\n%s", out)
	}
}

func TestSmokeMhaexplore(t *testing.T) {
	// A shape small enough to exhaust in well under a second, with fault
	// placements so the placement matrix is exercised end to end.
	out := run(t, "mha", "explore", "-algs", "ring,rd", "-nodes", "2", "-ppn", "1",
		"-hcas", "2", "-msg", "4", "-faults")
	for _, want := range []string{"fault=node1.rail1", "all interleavings verified", "across 10 placements"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhaexplore output missing %q:\n%s", want, out)
		}
	}
	out = run(t, "mha", "explore", "-repro", "alg=ring nodes=1 ppn=2 hcas=1 msg=4 fault=none sched=canonical")
	if !strings.Contains(out, "repro passed") {
		t.Fatalf("mhaexplore -repro output unexpected:\n%s", out)
	}
	out = run(t, "mha", "explore", "-list")
	for _, want := range []string{"ring", "rd", "sched-mha"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mhaexplore -list missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMhaexploreRejectsUnfittingSchedule(t *testing.T) {
	for _, sched := range []string{
		"9.9.9",                     // outside the frontier
		"0.0.0.0.0.0.0.0.0.0.0.0.1", // inside a frontier that never was: the run makes 7 decisions
	} {
		cmd := exec.Command(filepath.Join(binaries(t), "mha"), "explore", "-repro",
			"alg=ring nodes=1 ppn=2 hcas=1 msg=4 fault=none sched="+sched)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unfitting schedule %s accepted:\n%s", sched, out)
		}
		if !strings.Contains(string(out), "does not replay") {
			t.Fatalf("unfitting-schedule diagnostic for %s unexpected:\n%s", sched, out)
		}
	}
}

func TestSmokeMhaosuMachinePreset(t *testing.T) {
	out := run(t, "mha", "osu", "allgather", "-machine", "thetagpu", "-nodes", "2", "-ppn", "4",
		"-min", "16384", "-max", "65536")
	if !strings.Contains(out, "8 HCAs") {
		t.Fatalf("preset did not apply:\n%s", out)
	}
}

func TestSmokeMhaschedPipeline(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.sched")
	out := run(t, "mha", "sched", "build", "-alg", "mha", "-nodes", "2", "-ppn", "2",
		"-hcas", "2", "-msg", "1024", "-o", plan)
	if out != "" {
		t.Fatalf("build -o wrote to stdout:\n%s", out)
	}
	out = run(t, "mha", "sched", "analyze", "-f", plan)
	for _, want := range []string{"mha-ring", "cost", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out)
		}
	}
	out = run(t, "mha", "sched", "run", "-f", plan)
	if !strings.Contains(out, "4 ranks verified") {
		t.Fatalf("run did not verify:\n%s", out)
	}
	// JSON export must re-parse to the same canonical schedule.
	js := filepath.Join(dir, "plan.json")
	run(t, "mha", "sched", "export", "-f", plan, "-json", "-o", js)
	out = run(t, "mha", "sched", "analyze", "-f", js)
	if !strings.Contains(out, "OK") {
		t.Fatalf("exported JSON does not analyze:\n%s", out)
	}
	out = run(t, "mha", "sched", "search", "-nodes", "2", "-ppn", "2", "-hcas", "2", "-msg", "65536")
	if !strings.Contains(out, "best:") {
		t.Fatalf("search output missing winner:\n%s", out)
	}
}

func TestSmokeMhaschedRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.sched")
	// A schedule whose only step never delivers most blocks.
	spec := "schedule bad nodes=1 ppn=4 msg=8\nstep\nxfer src=0 dst=1 first=0 count=1\n"
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "sched", "analyze", "-f", bad)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("incomplete schedule accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "missing block") {
		t.Fatalf("diagnostic unexpected:\n%s", out)
	}

	// A complete allgather whose transfers ask for a reduction: the
	// analyzer passes it, the interpreter has no reducer and must say so.
	red := filepath.Join(dir, "red.sched")
	spec = "schedule red nodes=1 ppn=2 hcas=1 msg=8\nstep\n" +
		"xfer src=0 dst=1 first=0 count=1 red=1\nxfer src=1 dst=0 first=1 count=1 red=1\n"
	if err := os.WriteFile(red, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(binaries(t), "mha"), "sched", "run", "-f", red).CombinedOutput()
	if err == nil {
		t.Fatalf("reducing allgather schedule ran and verified:\n%s", out)
	}
	if !strings.Contains(string(out), "reducing transfers but no reducer") {
		t.Fatalf("diagnostic unexpected:\n%s", out)
	}
}

func TestSmokeMhacluster(t *testing.T) {
	out := run(t, "mha", "cluster", "policy-compare", "-workload", "burst", "-jobs", "4")
	for _, want := range []string{"policy comparison", "packed", "spread", "rail-aware",
		"lowest mean slowdown: rail-aware"} {
		if !strings.Contains(out, want) {
			t.Fatalf("policy-compare output missing %q:\n%s", want, out)
		}
	}
	out = run(t, "mha", "cluster", "run", "-nodes", "4", "-ppn", "4", "-jobs", "4",
		"-payload", "-timeline", "-faults", "down node=1 rail=1 until=100us")
	for _, want := range []string{"per-job metrics", "trace hash", "legend", "J=job"} {
		if !strings.Contains(out, want) {
			t.Fatalf("run output missing %q:\n%s", want, out)
		}
	}
	out = run(t, "mha", "cluster", "sweep", "-jobs", "2,4", "-policy", "packed")
	if !strings.Contains(out, "load sweep") {
		t.Fatalf("sweep output unexpected:\n%s", out)
	}
}

func TestSmokeMhalint(t *testing.T) {
	out := run(t, "mha", "lint", "-list")
	for _, pass := range []string{"detnow", "maporder", "waitpair", "railpin", "gonosim",
		"sharedstate", "purity", "locklint", "unreached", "suppaudit"} {
		if !strings.Contains(out, pass) {
			t.Fatalf("-list missing pass %s:\n%s", pass, out)
		}
	}
	// One clean package is enough to see the binary load, run the nine
	// passes that judge a subset (unreached needs the whole module) and
	// report; the whole tree is lint.TestTreeIsClean's and the CI Lint
	// step's.
	out = run(t, "mha", "lint", "./internal/topology")
	if !strings.Contains(out, "9 passes") || !strings.Contains(out, "no findings") {
		t.Fatalf("internal/topology should lint clean under the nine subset passes:\n%s", out)
	}
}

// TestSmokeMhalintImportCycle: two packages that import each other are
// one line and exit 2, not a goroutine stack from unbounded recursion.
func TestSmokeMhalintImportCycle(t *testing.T) {
	out, code := mhaExit(t, "lint", "./internal/lint/testdata/src/cycle/a", "./internal/lint/testdata/src/cycle/b")
	if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, "import cycle") ||
		strings.Contains(out, "goroutine") {
		t.Fatalf("mha lint on an import cycle exited %d, want 2 and one line naming the cycle:\n%s", code, out)
	}
}

func TestSmokeMhalintFlagsFixtures(t *testing.T) {
	// Every pass must exit non-zero on its own firing fixture, naming
	// itself in the diagnostics.
	for _, pass := range []string{"detnow", "maporder", "waitpair", "railpin", "gonosim",
		"sharedstate", "purity", "locklint", "unreached", "suppaudit"} {
		cmd := exec.Command(filepath.Join(binaries(t), "mha"), "lint",
			"./internal/lint/testdata/src/"+pass)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s fixture lints clean:\n%s", pass, out)
		}
		if !strings.Contains(string(out), pass+":") {
			t.Fatalf("%s fixture diagnostics unexpected:\n%s", pass, out)
		}
	}
}

func TestSmokeMhalintPassSelection(t *testing.T) {
	// -pass restricts the run: the waitpair fixture fires under its own
	// pass but is silent under detnow alone.
	fixture := "./internal/lint/testdata/src/waitpair"
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "lint", "-pass", "waitpair", fixture)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "waitpair:") {
		t.Fatalf("-pass waitpair did not fire on its fixture (err=%v):\n%s", err, out)
	}
	out2 := run(t, "mha", "lint", "-pass", "detnow", fixture)
	if !strings.Contains(out2, "no findings") {
		t.Fatalf("-pass detnow should be silent on the waitpair fixture:\n%s", out2)
	}
	cmd = exec.Command(filepath.Join(binaries(t), "mha"), "lint", "-pass", "nosuchpass", fixture)
	if _, err := cmd.CombinedOutput(); err == nil {
		t.Fatal("-pass nosuchpass must be a usage error")
	}
}

func TestSmokeMhalintJSONAndBaseline(t *testing.T) {
	fixture := "./internal/lint/testdata/src/detnow"
	bin := filepath.Join(binaries(t), "mha")

	// -json: findings as machine-readable output, still exit 1; two runs
	// must agree byte for byte.
	cmd := exec.Command(bin, "lint", "-json", fixture)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("fixture lints clean under -json:\n%s", out)
	}
	if !strings.Contains(string(out), `"pass": "detnow"`) || !strings.Contains(string(out), `"findings"`) {
		t.Fatalf("-json output shape unexpected:\n%s", out)
	}
	cmd = exec.Command(bin, "lint", "-json", fixture)
	out2, _ := cmd.CombinedOutput()
	if string(out) != string(out2) {
		t.Fatalf("-json output not deterministic:\n%s\nvs\n%s", out, out2)
	}

	// -write-baseline accepts the findings; -baseline then comes back
	// clean, and deleting a line resurfaces exactly that finding.
	base := filepath.Join(t.TempDir(), "fixture.baseline")
	run(t, "mha", "lint", "-write-baseline", base, fixture)
	out3 := run(t, "mha", "lint", "-baseline", base, fixture)
	if !strings.Contains(out3, "baselined") {
		t.Fatalf("-baseline did not absorb the accepted findings:\n%s", out3)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if err := os.WriteFile(base, []byte(strings.Join(lines[:len(lines)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(bin, "lint", "-baseline", base, fixture)
	out4, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("shrunken baseline still absorbs everything:\n%s", out4)
	}
	if !strings.Contains(string(out4), "1 finding(s)") {
		t.Fatalf("want exactly the un-baselined finding back:\n%s", out4)
	}
}

// startMhatuned launches the daemon on an ephemeral port and returns its
// base URL plus the process handle; the listener is ready once the
// "listening on" line appears on stderr.
func startMhatuned(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), "mhatuned"),
		append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			go io.Copy(io.Discard, stderr) // keep draining so the daemon never blocks
			return strings.TrimSpace(line[i+len("listening on "):]), cmd
		}
	}
	cmd.Wait()
	t.Fatal("mhatuned never reported readiness")
	return "", nil
}

func TestSmokeMhatunedDaemon(t *testing.T) {
	cacheFile := filepath.Join(t.TempDir(), "cache.json")
	url, cmd := startMhatuned(t, "-cache", cacheFile)

	query := `{"nodes":2,"ppn":2,"hcas":2,"msg":4096}`
	post := func() (string, string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/schedule", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/schedule: %v status=%d\n%s", err, resp.StatusCode, body)
		}
		return resp.Header.Get("X-Mhatuned-Cache"), string(body)
	}

	if resp, err := http.Get(url + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	} else {
		resp.Body.Close()
	}
	coldHdr, coldBody := post()
	warmHdr, warmBody := post()
	if coldHdr != "miss" || warmHdr != "hit" {
		t.Fatalf("cache headers cold=%q warm=%q, want miss/hit", coldHdr, warmHdr)
	}
	if coldBody != warmBody {
		t.Fatal("warm response differs from cold response")
	}

	// Graceful shutdown persists the cache...
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v", err)
	}
	if _, err := os.Stat(cacheFile); err != nil {
		t.Fatalf("cache file not saved: %v", err)
	}

	// ...and a restarted daemon answers the same query warm.
	url2, _ := startMhatuned(t, "-cache", cacheFile)
	resp, err := http.Post(url2+"/v1/schedule", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get("X-Mhatuned-Cache"); h != "hit" {
		t.Fatalf("restarted daemon served %q, want hit", h)
	}
	if string(body) != coldBody {
		t.Fatal("restarted daemon serves different bytes")
	}
}

func TestSmokeMhatunedBench(t *testing.T) {
	out := run(t, "mhatuned", "-bench", "-bench-requests", "5000")
	if !strings.Contains(out, "decisions/sec") || !strings.Contains(out, "hit rate") {
		t.Fatalf("bench output unexpected:\n%s", out)
	}
}

func TestSmokeMhaclusterRejectsBadPolicy(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "cluster", "run", "-policy", "best-fit")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bad policy accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown policy") {
		t.Fatalf("bad-policy diagnostic unexpected:\n%s", out)
	}
}

func TestSmokeMhacomposeListAndDescribe(t *testing.T) {
	out := run(t, "mha", "compose", "list")
	for _, name := range []string{"compose-ag", "compose-rs", "compose-a2a", "compose-ar", "compose-bcast"} {
		if !strings.Contains(out, name) {
			t.Fatalf("list missing %s:\n%s", name, out)
		}
	}
	out = run(t, "mha", "compose", "describe", "-coll", "reduce-scatter", "-nodes", "4", "-ppn", "4", "-hcas", "2")
	for _, want := range []string{"coll=reduce-scatter", "red scope=node", "mc scope=node alg=pull", "leader-group"} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeMhacomposeLowerAnalyzeRun(t *testing.T) {
	out := run(t, "mha", "compose", "lower", "-coll", "alltoall", "-nodes", "2", "-ppn", "2", "-hcas", "2", "-msg", "4096")
	if !strings.Contains(out, "step") {
		t.Fatalf("lowered IR unexpected:\n%s", out)
	}
	// A custom pipeline file goes through the same path.
	pipe := filepath.Join(t.TempDir(), "rs.compose")
	custom := "compose my-rs coll=reduce-scatter\nred scope=world alg=ring\n"
	if err := os.WriteFile(pipe, []byte(custom), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, "mha", "compose", "analyze", "-f", pipe, "-nodes", "2", "-ppn", "2", "-msg", "65536")
	if !strings.Contains(out, "my-rs") || !strings.Contains(out, "invariants: ok") {
		t.Fatalf("analyze output unexpected:\n%s", out)
	}
	out = run(t, "mha", "compose", "run", "-name", "compose-rs", "-nodes", "2", "-ppn", "4", "-msg", "1024")
	if !strings.Contains(out, "verified") || !strings.Contains(out, "trace hash") {
		t.Fatalf("run output unexpected:\n%s", out)
	}
}

func TestSmokeMhacomposeRejectsIncompletePipeline(t *testing.T) {
	pipe := filepath.Join(t.TempDir(), "bad.compose")
	// A reduce-scatter that folds into node leaders but never
	// distributes: the static analyzer must refuse it.
	bad := "compose bad coll=reduce-scatter\nred scope=node\nred scope=leaders alg=ring\n"
	if err := os.WriteFile(pipe, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "compose",
		"analyze", "-f", pipe, "-nodes", "2", "-ppn", "2", "-msg", "1024")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("incomplete pipeline accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "analyze") {
		t.Fatalf("diagnostic unexpected:\n%s", out)
	}
}

// TestSmokeMhaComposeShapeTooLargeIsAnError: a compose row that cannot
// be lowered on the shape is refused before a world is built, with the
// lowering error on one line (exit 2), not a panic on every rank.
func TestSmokeMhaComposeShapeTooLargeIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"trace", "-alg", "compose-a2a", "-nodes", "8", "-ppn", "32", "-hcas", "2", "-size", "1024"},
		{"compose", "run", "-name", "compose-a2a", "-nodes", "8", "-ppn", "32", "-msg", "1024"},
	} {
		out, code := mhaExit(t, args...)
		if code != 2 || strings.Count(out, "\n") != 1 || !strings.Contains(out, "more than 128 transfers") ||
			strings.Contains(out, "goroutine") {
			t.Errorf("mha %v exited %d, want 2 and one line with %q:\n%s", args, code, "more than 128 transfers", out)
		}
	}
}

func TestSmokeMhafabricDescribeAndRoute(t *testing.T) {
	out := run(t, "mha", "fabric", "describe", "-fabric", "ft:arity=2,levels=2,over=2", "-nodes", "8")
	if !strings.Contains(out, "fattree") || !strings.Contains(out, "shared links: 8") {
		t.Fatalf("describe output unexpected:\n%s", out)
	}
	out = run(t, "mha", "fabric", "route", "-fabric", "dfly:groups=2,routers=2,nodes=2", "-nodes", "8", "-src", "0", "-dst", "7")
	if !strings.Contains(out, "node0 -> node7:") || !strings.Contains(out, "dfly.g0-g1") {
		t.Fatalf("route output unexpected:\n%s", out)
	}
	// Same-leaf traffic crosses no shared links.
	out = run(t, "mha", "fabric", "route", "-fabric", "ft:arity=2,levels=2,over=2", "-nodes", "4", "-src", "0", "-dst", "1")
	if !strings.Contains(out, "no shared links") {
		t.Fatalf("same-leaf route output unexpected:\n%s", out)
	}
}

func TestSmokeMhafabricSweepMatchesGolden(t *testing.T) {
	out := run(t, "mha", "fabric", "sweep")
	want, err := os.ReadFile(filepath.Join("internal", "bench", "testdata", "golden", "fabric.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("sweep output drifted from the fabric golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestSmokeMhafabricRejectsBadSpec(t *testing.T) {
	cmd := exec.Command(filepath.Join(binaries(t), "mha"), "fabric", "describe", "-fabric", "torus:dims=3")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bad fabric spec accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "fabric") {
		t.Fatalf("diagnostic unexpected:\n%s", out)
	}
}
