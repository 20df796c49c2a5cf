// Quickstart: run the paper's MHA allgather on a simulated 4-node cluster
// with 8 ranks per node and 2 HCAs per node, verify the result against
// the expected concatenation, and compare its virtual-time latency with
// the flat ring baseline.
package main

import (
	"fmt"
	"log"

	"mha"
)

func main() {
	topo := mha.NewCluster(4, 8, 2)
	fmt.Printf("cluster: %v (%d ranks)\n", topo, topo.Size())

	// --- Correctness: real payloads round-trip through the collective.
	w := mha.NewWorld(mha.Config{Topo: topo})
	const m = 1024 // bytes contributed per rank
	err := w.Run(func(p *mha.Proc) {
		send := mha.NewBuf(m)
		for i := range send.Data() {
			send.Data()[i] = byte(p.Rank())
		}
		recv := mha.NewBuf(m * p.Size())
		mha.Allgather(p, w, send, recv)

		// Every rank must now hold every other rank's block, in order.
		for r := 0; r < p.Size(); r++ {
			if recv.Data()[r*m] != byte(r) {
				log.Fatalf("rank %d: block %d corrupted", p.Rank(), r)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MHA allgather of %dB/rank verified on all %d ranks in %v (virtual)\n",
		m, topo.Size(), mha.Duration(w.Makespan()))

	// --- Performance: sweep message sizes against the baselines.
	fmt.Printf("\n%-8s %14s %14s %14s\n", "size", "HPC-X", "MVAPICH2-X", "MHA")
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		fmt.Printf("%-8d", size)
		for _, prof := range []mha.Profile{mha.HPCXProfile(), mha.MVAPICH2XProfile(), mha.MHAProfile()} {
			d := mha.MeasureAllgather(topo, mha.Thor(), size, prof)
			fmt.Printf(" %13.1fus", d.Micros())
		}
		fmt.Println()
	}
}
