package sched_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mha/internal/sched"
	"mha/internal/topology"
)

// TestDirectRailPinned pins the greedy direct construction's output,
// byte for byte, on every block-layout machine of 1-16 nodes by 1-16 ppn
// by 1-4 rails with at most 128 ranks, at a zero-byte and a 64 KiB
// message: one digest over each schedule's text form, or "nil" where the
// cross-node traffic does not fit the step limit. A faster construction
// must build exactly the same schedules and refuse exactly the same
// machines.
func TestDirectRailPinned(t *testing.T) {
	h := sha256.New()
	built, refused := 0, 0
	for nodes := 1; nodes <= 16; nodes++ {
		for ppn := 1; ppn <= 16 && nodes*ppn <= 128; ppn++ {
			for hcas := 1; hcas <= 4; hcas++ {
				for _, msg := range []int{0, 64 << 10} {
					fmt.Fprintf(h, "%dx%dx%d/%d: ", nodes, ppn, hcas, msg)
					s := sched.DirectRail(topology.New(nodes, ppn, hcas), msg)
					if s == nil {
						refused++
						h.Write([]byte("nil\n"))
						continue
					}
					built++
					h.Write([]byte(s.String()))
					h.Write([]byte("\n"))
				}
			}
		}
	}
	const want = "d3d5f05f2da326ba207c8081c99ebd4b2b0bdc7257a9d2635e3d36e707511de0"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("DirectRail moved (%d built, %d refused): digest %s, recorded %s", built, refused, got, want)
	}
}
