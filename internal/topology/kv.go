package topology

import (
	"cmp"
	"strconv"
	"strings"

	"mha/internal/kv"
)

// Decode reads the machine-shape keys of a text spec (nodes, ppn, hcas,
// sockets, layout, nodehcas and railbw) over def: a key that is not
// given keeps def's value. It is the one reader of these keys under
// every spec grammar; a grammar's kv.Parse allowed list decides which
// of them it takes, and the grammar validates the result. nodehcas and
// railbw are '/'-separated lists, one entry per node and per rail.
func Decode(set kv.Set, def Cluster) (Cluster, error) {
	c := def
	var errs [7]error
	c.Nodes, errs[0] = set.Int("nodes", def.Nodes)
	c.PPN, errs[1] = set.Int("ppn", def.PPN)
	c.HCAs, errs[2] = set.Int("hcas", def.HCAs)
	c.Sockets, errs[3] = set.Int("sockets", def.Sockets)
	if set.Has("layout") {
		c.Layout, errs[4] = ParseLayout(set.Str("layout", ""))
	}
	if set.Has("nodehcas") {
		c.NodeHCAs, errs[5] = splitList(set.Str("nodehcas", ""), strconv.Atoi)
	}
	if set.Has("railbw") {
		c.RailBW, errs[6] = splitList(set.Str("railbw", ""), func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	}
	return c, cmp.Or(errs[:]...)
}

// splitList reads a '/'-separated list, stopping at parse's first error.
func splitList[T any](v string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(v, "/")
	out := make([]T, len(parts))
	for i, p := range parts {
		var err error
		if out[i], err = parse(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
