package fabric

import (
	"fmt"
	"io"

	"mha/internal/netmodel"
	"mha/internal/sim"
	"mha/internal/topology"
)

// Link is one shared fabric cable: an aggregate trunk (fat-tree) or a
// local/global channel (dragonfly). BW is its capacity in bytes per
// second; Res is the FIFO-queue resource that serializes transfers over
// it (nil when the network was built without an engine, for
// describe/route-only use).
type Link struct {
	Name string
	BW   float64
	Res  *sim.Resource
}

// Network is a built fabric instance: the spec applied to a concrete
// cluster, with one sim.Resource per link and every pairwise route
// precomputed. Routes are deterministic (minimal, lowest-index
// tie-break) and the table is immutable after Build, so concurrent
// simulator processes can read it without synchronization.
type Network struct {
	spec   Spec
	topo   topology.Cluster
	links  []*Link
	routes [][]*Link // [src*Nodes+dst]

	// fat-tree: up/down trunk per switch per trunk level, and the
	// (clamped) subtree width per level for switch indexing.
	up, down [][]*Link
	pows     []int

	// dragonfly: directed local links [g][a][b] flattened, and one
	// global link per unordered group pair.
	local  []*Link
	global []*Link
}

// Build instantiates a fabric over a cluster. eng may be nil, in which
// case links carry no resources and the network only describes and
// routes (used by the CLI). Capacities derive from the cluster's
// injection bandwidth — heterogeneous HCA counts and asymmetric rail
// scales shrink the trunks they feed — tapered by the spec's
// oversubscription factors.
func Build(eng *sim.Engine, spec Spec, topo topology.Cluster, prm *netmodel.Params) (*Network, error) {
	if err := spec.CheckNodes(topo.Nodes); err != nil {
		return nil, err
	}
	nw := &Network{spec: spec, topo: topo}
	switch spec.Kind {
	case Flat:
		// No shared links; all routes stay empty.
	case FatTree:
		nw.buildFatTree(eng, prm)
	case Dragonfly:
		nw.buildDragonfly(eng, prm)
	}
	nw.routes = make([][]*Link, topo.Nodes*topo.Nodes)
	for s := 0; s < topo.Nodes; s++ {
		for d := 0; d < topo.Nodes; d++ {
			if s != d {
				nw.routes[s*topo.Nodes+d] = nw.computeRoute(s, d)
			}
		}
	}
	return nw, nil
}

// NodeInjection is the aggregate bandwidth node n can push into the
// fabric: the sum of its rails' (possibly scaled) line rates.
func NodeInjection(topo topology.Cluster, prm *netmodel.Params, n int) float64 {
	sum := 0.0
	for r := 0; r < topo.HCAsOf(n); r++ {
		sum += prm.RailBW(topo.RailScale(r))
	}
	return sum
}

func (nw *Network) newLink(eng *sim.Engine, name string, bw float64) *Link {
	l := &Link{Name: name, BW: bw}
	if eng != nil {
		l.Res = eng.NewResource(name)
	}
	nw.links = append(nw.links, l)
	return l
}

func (nw *Network) buildFatTree(eng *sim.Engine, prm *netmodel.Params) {
	spec, topo := nw.spec, nw.topo
	hetero := topo.Heterogeneous()
	nw.pows = make([]int, spec.Levels)
	nw.pows[0] = 1
	pow := 1    // subtree width, clamped for indexing
	powF := 1.0 // notional full-subtree width, for capacity
	cum := 1.0  // cumulative taper down to this trunk level
	for k := 1; k < spec.Levels; k++ {
		if pow <= topo.Nodes {
			pow *= spec.Arity
		}
		if pow > topo.Nodes {
			pow = topo.Nodes
		}
		nw.pows[k] = pow
		powF *= float64(spec.Arity)
		cum *= spec.Over[k-1]
		switches := (topo.Nodes + pow - 1) / pow
		ups := make([]*Link, switches)
		downs := make([]*Link, switches)
		for s := 0; s < switches; s++ {
			var bw float64
			if !hetero {
				// A switch's trunk is sized for a full subtree, so a
				// partially filled leaf keeps the full leaf's uplink;
				// the ext-fabric and fabric goldens rely on it.
				bw = powF * float64(topo.HCAs) * prm.BWHCA / cum
			} else {
				inj := 0.0
				for n := s * pow; n < (s+1)*pow && n < topo.Nodes; n++ {
					inj += NodeInjection(topo, prm, n)
				}
				bw = inj / cum
			}
			ups[s] = nw.newLink(eng, fmt.Sprintf("ft.l%d.s%d.up", k, s), bw)
			downs[s] = nw.newLink(eng, fmt.Sprintf("ft.l%d.s%d.down", k, s), bw)
		}
		nw.up = append(nw.up, ups)
		nw.down = append(nw.down, downs)
	}
}

func (nw *Network) buildDragonfly(eng *sim.Engine, prm *netmodel.Params) {
	spec, topo := nw.spec, nw.topo
	total := 0.0
	for n := 0; n < topo.Nodes; n++ {
		total += NodeInjection(topo, prm, n)
	}
	meanInj := total / float64(topo.Nodes)
	localBW := float64(spec.NodesPer) * meanInj / spec.LocalOver
	globalBW := float64(spec.NodesPer) * meanInj / spec.GlobalOver
	R := spec.Routers
	nw.local = make([]*Link, spec.Groups*R*R)
	for g := 0; g < spec.Groups; g++ {
		for a := 0; a < R; a++ {
			for b := 0; b < R; b++ {
				if a == b {
					continue
				}
				nw.local[(g*R+a)*R+b] = nw.newLink(eng,
					fmt.Sprintf("dfly.g%d.r%d-r%d", g, a, b), localBW)
			}
		}
	}
	nw.global = make([]*Link, spec.Groups*spec.Groups)
	for i := 0; i < spec.Groups; i++ {
		for j := i + 1; j < spec.Groups; j++ {
			l := nw.newLink(eng, fmt.Sprintf("dfly.g%d-g%d", i, j), globalBW)
			nw.global[i*spec.Groups+j] = l
			nw.global[j*spec.Groups+i] = l
		}
	}
}

// Route returns the shared links a transfer from src node to dst node
// crosses, in charge order (source side up, then destination side
// down). Nil means no shared links: same node, same switch/router, or
// a flat fabric.
func (nw *Network) Route(src, dst int) []*Link {
	if src == dst {
		return nil
	}
	return nw.routes[src*nw.topo.Nodes+dst]
}

func (nw *Network) computeRoute(src, dst int) []*Link {
	switch nw.spec.Kind {
	case FatTree:
		return nw.ftRoute(src, dst)
	case Dragonfly:
		return nw.dflyRoute(src, dst)
	}
	return nil
}

func (nw *Network) ftRoute(src, dst int) []*Link {
	// Meet at the first level whose switch both nodes share; the core
	// (level Levels) is non-blocking, so paths crossing it only charge
	// the trunk stacks on either side.
	meet := nw.spec.Levels
	for k := 1; k < nw.spec.Levels; k++ {
		if src/nw.pows[k] == dst/nw.pows[k] {
			meet = k
			break
		}
	}
	var path []*Link
	for k := 1; k < meet; k++ {
		path = append(path, nw.up[k-1][src/nw.pows[k]])
	}
	for k := meet - 1; k >= 1; k-- {
		path = append(path, nw.down[k-1][dst/nw.pows[k]])
	}
	return path
}

func (nw *Network) dflyRoute(src, dst int) []*Link {
	R, P, G := nw.spec.Routers, nw.spec.NodesPer, nw.spec.Groups
	gi, ri := src/(R*P), (src/P)%R
	gj, rj := dst/(R*P), (dst/P)%R
	if gi == gj {
		if ri == rj {
			return nil
		}
		return []*Link{nw.local[(gi*R+ri)*R+rj]}
	}
	// Minimal routing: hop to the deterministic gateway router, cross
	// the group pair's global link, hop to the destination router.
	gw := (gi + gj) % R
	var path []*Link
	if ri != gw {
		path = append(path, nw.local[(gi*R+ri)*R+gw])
	}
	path = append(path, nw.global[gi*G+gj])
	if gw != rj {
		path = append(path, nw.local[(gj*R+gw)*R+rj])
	}
	return path
}

// Spec returns the fabric description the network was built from.
func (nw *Network) Spec() Spec { return nw.spec }

// Links returns every shared link in creation order.
func (nw *Network) Links() []*Link { return nw.links }

// Describe writes a human-readable structure summary.
func (nw *Network) Describe(w io.Writer) {
	spec := &nw.spec
	fmt.Fprintf(w, "fabric %s (%s) on %v\n", spec, spec.Kind, nw.topo)
	switch spec.Kind {
	case Flat:
		fmt.Fprintf(w, "  non-blocking: transfers contend only at endpoint HCAs\n")
	case FatTree:
		for k := 1; k < spec.Levels; k++ {
			sw := nw.up[k-1]
			fmt.Fprintf(w, "  level %d: %d switches, trunk %.1f GB/s each way, taper %s\n",
				k, len(sw), sw[0].BW/1e9, formatFactor(spec.Over[k-1]))
		}
		fmt.Fprintf(w, "  level %d: non-blocking core\n", spec.Levels)
	case Dragonfly:
		var localBW, globalBW float64
		locals, globals := 0, 0
		for _, l := range nw.local {
			if l != nil {
				locals++
				localBW = l.BW
			}
		}
		for i := 0; i < spec.Groups; i++ {
			for j := i + 1; j < spec.Groups; j++ {
				globals++
				globalBW = nw.global[i*spec.Groups+j].BW
			}
		}
		fmt.Fprintf(w, "  %d groups x %d routers x %d nodes/router\n", spec.Groups, spec.Routers, spec.NodesPer)
		fmt.Fprintf(w, "  local links: %d x %.1f GB/s (taper %s)\n", locals, localBW/1e9, formatFactor(spec.LocalOver))
		if globals > 0 {
			fmt.Fprintf(w, "  global links: %d x %.1f GB/s (taper %s)\n", globals, globalBW/1e9, formatFactor(spec.GlobalOver))
		}
	}
	fmt.Fprintf(w, "  shared links: %d\n", len(nw.links))
}
