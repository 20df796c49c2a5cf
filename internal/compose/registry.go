package compose

import "mha/internal/mpi"

// Variant is one derived collective, packaged for the rest of the
// toolchain: a name, the contract it implements, the composition it
// lowers from, its topology constraint, and a verify-shaped runner.
type Variant struct {
	Name string
	Coll Collective
	Comp Composition
	// BlockOnly marks hierarchical pipelines, which need the block rank
	// layout on multi-node machines (leader designs own contiguous block
	// ranges). Flat pipelines run anywhere.
	BlockOnly bool
	Run       func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf)
}

// Variants is the single registration point for every derived
// collective. The verify registry derives one row from each entry, and
// the compose experiment and `mha compose` enumerate it, so a variant added
// here is verified, explored and priced without further wiring.
func Variants() []Variant {
	var out []Variant
	add := func(comp Composition, blockOnly bool) {
		out = append(out, Variant{
			Name: comp.Name, Coll: comp.Coll, Comp: comp,
			BlockOnly: blockOnly, Run: Runner(comp),
		})
	}
	// The hierarchical pipelines (node and leader scopes).
	add(Hierarchical(Allgather), true)
	add(Hierarchical(ReduceScatter), true)
	add(Hierarchical(Alltoall), true)
	add(Hierarchical(Gather), true)
	add(Hierarchical(Scatter), true)
	add(Hierarchical(Bcast), true)
	// The flat pipelines: any layout, any communicator.
	add(Flat(ReduceScatter), false)
	add(Flat(Alltoall), false)
	add(Flat(Gather), false)
	add(Flat(Scatter), false)
	add(Flat(Allreduce), false)
	add(Flat(Bcast), false)
	return out
}

// ByName resolves one derived variant from the Variants table.
func ByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}
