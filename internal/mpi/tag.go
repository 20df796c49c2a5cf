package mpi

import "fmt"

// Tag composes a collision-free message tag from a collective epoch, a
// phase id (5 bits, one of the Phase ids below) and a step number (16
// bits).
func Tag(epoch, phase, step int) int {
	if phase < 0 || phase > 31 {
		panic(fmt.Sprintf("mpi: tag phase %d out of range", phase))
	}
	if step < 0 || step >= 1<<16 {
		panic(fmt.Sprintf("mpi: tag step %d out of range", step))
	}
	return epoch<<21 | phase<<16 | step
}

// Tag phase ids, one per algorithm family. Every caller of Tag takes its
// phase from this table, and every id in it is distinct and below 32
// (TestPhaseIdsAreDistinct). A collision would be harmless, since each
// collective invocation has its own epoch, but distinct ids keep two
// algorithms from ever matching each other's traffic and make a tag dump
// name its sender.
const (
	PhaseRing      = 0  // collectives: ring allgather
	PhaseRD        = 1  // collectives: recursive doubling (allgather, allreduce)
	PhaseBruck     = 2  // collectives: Bruck allgather
	PhaseDirect    = 3  // collectives: direct-spread allgather
	PhaseGather    = 4  // collectives: two-level gather to the node leader
	PhaseLeader    = 5  // collectives: two-level and multi-leader leaders' exchange
	PhaseRS        = 7  // collectives: ring reduce-scatter
	PhaseARAG      = 8  // collectives: ring allreduce's allgather half
	PhaseLocGather = 9  // collectives: locality family, gather to the group leader
	PhaseIntraCPU  = 10 // core: MHA-intra transfer carried by the CPU
	PhaseIntraHCA  = 11 // core: MHA-intra transfer (or split remainder) carried by HCAs
	PhaseSched     = 12 // sched: schedule interpreter, step field (step << 7) | q
	PhaseLocX      = 13 // collectives: locality family, inter-group exchange
	PhaseLocBcast  = 14 // collectives: locality family, intra-group distribution
	PhaseContended = 15 // cluster: a contended job's leaders' exchange
	PhaseBcast     = 16 // collectives: binomial bcast
	PhaseReduce    = 17 // collectives: binomial reduce
	PhaseHalo      = 18 // apps/stencil: halo exchange
	PhaseA2A       = 20 // collectives: pairwise alltoall
	PhaseAGV       = 21 // collectives: ring allgatherv
	PhaseMBcast    = 24 // core: MHA bcast
	PhaseMReduce   = 25 // core: MHA reduce
	PhaseMA2A      = 28 // core: MHA alltoall
	PhaseVGather   = 29 // core: MHA allgatherv gather to the node leader
	PhaseVLeader   = 30 // core: MHA allgatherv leaders' exchange
)
