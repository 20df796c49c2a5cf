// NUMA and tracing: runs the paper's future-work 3-level design against
// the 2-level design on a NUMA cluster (2 sockets per node, 1.5x
// cross-socket CMA penalty) and renders an ASCII timeline of the 3-level
// algorithm so the level structure is visible.
package main

import (
	"fmt"
	"log"

	"mha"
)

func main() {
	topo := mha.Cluster{Nodes: 4, PPN: 8, HCAs: 2, Sockets: 2}
	if err := topo.Validate(); err != nil {
		log.Fatal(err)
	}
	prm := mha.NumaThor()

	measure := func(alg func(p *mha.Proc, w *mha.World, send, recv mha.Buf), m int) mha.Duration {
		w := mha.NewWorld(mha.Config{Topo: topo, Params: prm, Phantom: true})
		err := w.Run(func(p *mha.Proc) {
			alg(p, w, mha.Phantom(m), mha.Phantom(m*p.Size()))
		})
		if err != nil {
			log.Fatal(err)
		}
		return mha.Duration(w.Makespan())
	}

	fmt.Printf("allgather on %v with 2 NUMA sockets/node (1.5x cross-socket penalty)\n\n", topo)
	fmt.Printf("%-10s %14s %14s %8s\n", "size/rank", "2-level MHA", "3-level MHA", "gain")
	for _, m := range []int{16 << 10, 128 << 10, 1 << 20} {
		two := measure(mha.Allgather, m)
		three := measure(mha.Allgather3Level, m)
		fmt.Printf("%-10d %12.1fus %12.1fus %7.1f%%\n",
			m, two.Micros(), three.Micros(), (1-float64(three)/float64(two))*100)
	}

	// Timeline of the 3-level run on one node's worth of ranks.
	rec := mha.NewTracer()
	w := mha.NewWorld(mha.Config{Topo: topo, Params: prm, Phantom: true, Tracer: rec})
	err := w.Run(func(p *mha.Proc) {
		mha.Allgather3Level(p, w, mha.Phantom(64<<10), mha.Phantom(64<<10*p.Size()))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n3-level timeline (64KB/rank), ranks of node 0 only:\n")
	full := rec.Timeline(100)
	// The recorder draws all ranks; show the first node's lanes plus legend.
	lines := 0
	for _, line := range splitLines(full) {
		fmt.Println(line)
		lines++
		if lines > topo.PPN+1 { // header + one lane per rank of node 0
			break
		}
	}
	fmt.Println("legend: S=send R=recv H=HCA transfer I=shm copy-in O=shm copy-out C=compute .=wait")
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
