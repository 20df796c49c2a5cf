package collectives

import "mha/internal/mpi"

// NamedAllgather is one flat, communicator-based allgather registered
// by name.
type NamedAllgather struct {
	Name string
	Run  func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf)
}

// Allgathers is the single registration point for the flat allgather
// implementations. The verify campaign and the cluster scheduler's job
// dispatch resolve flat allgathers from this table (compose.Variants is
// the analogous point for the derived collectives), so an algorithm
// added here cannot drift out of either.
func Allgathers() []NamedAllgather {
	return []NamedAllgather{
		{Name: "ring", Run: RingAllgather},
		{Name: "rd", Run: RDAllgather},
		{Name: "bruck", Run: BruckAllgather},
		{Name: "direct", Run: DirectSpreadAllgather},
		{Name: "neighbor", Run: NeighborExchangeAllgather},
		{Name: "locality-p2p", Run: LocalityP2PAllgather},
		{Name: "locality-ring", Run: LocalityRingAllgather},
		{Name: "locality-bruck", Run: LocalityBruckAllgather},
		{Name: "hier-bruck-ml", Run: HierBruckMLAllgather},
	}
}

// AllgatherByName resolves one registered flat allgather.
func AllgatherByName(name string) (func(p *mpi.Proc, c *mpi.Comm, send, recv mpi.Buf), bool) {
	for _, a := range Allgathers() {
		if a.Name == name {
			return a.Run, true
		}
	}
	return nil, false
}
