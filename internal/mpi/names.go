package mpi

import "strconv"

// The names of a world's engine objects. Every world names its ranks,
// their cpus, its nodes' memory gauges and rails and its comms' barriers
// the same way, and the small worlds the explorer builds by the ten
// thousand use only the first few of each, so those are spelled once,
// here; past a table a name is concatenated on demand.
var (
	rankNames    = newNameTable(64, func(r int) string { return "rank" + strconv.Itoa(r) })
	cpuNames     = newNameTable(64, func(r int) string { return "rank" + strconv.Itoa(r) + ".cpu" })
	memNames     = newNameTable(16, func(n int) string { return "node" + strconv.Itoa(n) + ".mem" })
	barrierNames = newNameTable(64, func(c int) string { return "comm" + strconv.Itoa(c) + ".barrier" })
	// Rail h of node n is index n*tabledRails + h, for h < tabledRails.
	txNames = newNameTable(16*tabledRails, func(i int) string { return railName(i/tabledRails, i%tabledRails, ".tx") })
	rxNames = newNameTable(16*tabledRails, func(i int) string { return railName(i/tabledRails, i%tabledRails, ".rx") })
)

const tabledRails = 4

// A nameTable holds the names of indices [0, len(names)), and build spells
// any other.
type nameTable struct {
	names []string
	build func(int) string
}

func newNameTable(n int, build func(int) string) nameTable {
	t := nameTable{names: make([]string, n), build: build}
	for i := range t.names {
		t.names[i] = build(i)
	}
	return t
}

func (t nameTable) name(i int) string {
	if i < len(t.names) {
		return t.names[i]
	}
	return t.build(i)
}

func railName(n, h int, dir string) string {
	return "node" + strconv.Itoa(n) + ".hca" + strconv.Itoa(h) + dir
}

// railNames are the names of node n's rail h's transmit and receive
// resources.
func railNames(n, h int) (tx, rx string) {
	if h < tabledRails {
		i := n*tabledRails + h
		return txNames.name(i), rxNames.name(i)
	}
	return railName(n, h, ".tx"), railName(n, h, ".rx")
}
