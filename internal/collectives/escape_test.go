package collectives

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRingAllgatherRequestsStayOnStack asks the compiler: mpi.Isend and
// mpi.Irecv inline into RingAllgather and neither they nor Wait keep a
// pointer to the request, so the ring's two requests per step must be
// reported as not escaping. An edit that makes Wait (or anything under it)
// retain its request puts an allocation back on every nonblocking operation
// of every collective; the allocation fences would say so too, this names
// the cause.
func TestRingAllgatherRequestsStayOnStack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler")
	}
	src, err := os.ReadFile("allgather.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	find := func(from int, sub string) int {
		for i := from; i < len(lines); i++ {
			if strings.Contains(lines[i], sub) {
				return i
			}
		}
		t.Fatalf("allgather.go: no %q after line %d", sub, from+1)
		return -1
	}
	fn := find(0, "func RingAllgather(")
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, call := range []string{"p.Irecv(", "p.Isend("} {
		at := fmt.Sprintf("allgather.go:%d:", find(fn, call)+1)
		kept := false
		for _, l := range strings.Split(string(out), "\n") {
			if strings.Contains(l, at) && strings.Contains(l, "new(mpi.Request)") {
				kept = strings.HasSuffix(l, "does not escape")
				t.Log(l)
			}
		}
		if !kept {
			t.Errorf("RingAllgather's %s...) at %s the compiler does not say new(mpi.Request) does not escape", call, at)
		}
	}
}
