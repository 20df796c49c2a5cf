// Package fabric models the structured inter-node network that carries
// cross-node MPI traffic: k-ary fat-trees with per-level oversubscription
// and dragonfly group/router/global-link topologies. It replaces the
// implicit flat all-to-all assumption (every pair contends only at its
// endpoints' HCAs) with deterministic routing over shared per-link
// sim.Resources, so inter-node contention is simulated instead of
// assumed away.
//
// A fabric is described by a compact, space-free spec string (it embeds
// into the one-line verify/explore scenario grammar):
//
//	flat
//	ft:arity=4,levels=2,over=2:1
//	dfly:groups=2,routers=2,nodes=2,local=1,global=2:1
//
// Taper values accept both plain factors ("2") and ratio form ("2:1");
// lists (one taper per fat-tree trunk level, leaf upward) are
// "/"-separated: over=4:1/2:1.
package fabric

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind selects the fabric family.
type Kind int

const (
	// Flat is the non-blocking all-to-all fabric: no shared links,
	// transfers contend only at endpoint HCAs (the paper's single-switch
	// Thor).
	Flat Kind = iota
	// FatTree is a k-ary tree: nodes attach in groups of Arity to leaf
	// switches, Arity leaves to each level-2 switch, and so on, topped by
	// a non-blocking core. Each switch's up/down trunk pair is a shared
	// resource tapered by the per-level oversubscription.
	FatTree
	// Dragonfly is the group/router/global-link topology: routers inside
	// a group are fully connected by local links, groups are connected
	// pairwise by global links, and minimal routing goes
	// local -> global -> local.
	Dragonfly
)

func (k Kind) String() string {
	switch k {
	case Flat:
		return "flat"
	case FatTree:
		return "fattree"
	case Dragonfly:
		return "dragonfly"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Bounds keep parsed specs small enough that building a network is
// always cheap (the fuzzer explores the full accepted space).
const (
	maxArity    = 1024
	maxLevels   = 8
	maxOver     = 1024
	maxGroups   = 1024
	maxRouters  = 256
	maxNodesPer = 1024
	maxDflyLoc  = 1 << 20 // Groups * Routers^2 (local-link count) ceiling
)

// Spec is a validated fabric description. The zero value is the flat
// fabric.
type Spec struct {
	Kind Kind

	// Fat-tree shape: Arity children per switch, Levels switch levels
	// counting the leaf row as 1 and the non-blocking core as Levels.
	// Over holds one oversubscription factor per trunk level (Levels-1
	// entries, leaf uplinks first); 1 is full bisection.
	Arity  int
	Levels int
	Over   []float64

	// Dragonfly shape: Groups x Routers x NodesPer must equal the
	// cluster's node count. LocalOver/GlobalOver taper the local and
	// global link capacities.
	Groups     int
	Routers    int
	NodesPer   int
	LocalOver  float64
	GlobalOver float64
}

// TwoLevel returns a two-level fat tree: leaves of nodesPerLeaf nodes
// under a non-blocking core, uplinks tapered by over.
func TwoLevel(nodesPerLeaf int, over float64) Spec {
	return Spec{Kind: FatTree, Arity: nodesPerLeaf, Levels: 2, Over: []float64{over}}
}

// Validate reports whether the spec is well-formed (shape-independent;
// see Check for the fit against a concrete cluster).
func (s *Spec) Validate() error {
	switch s.Kind {
	case Flat:
		return nil
	case FatTree:
		if s.Arity < 1 || s.Arity > maxArity {
			return fmt.Errorf("fabric: fat-tree arity %d outside [1,%d]", s.Arity, maxArity)
		}
		if s.Levels < 2 || s.Levels > maxLevels {
			return fmt.Errorf("fabric: fat-tree levels %d outside [2,%d]", s.Levels, maxLevels)
		}
		if len(s.Over) != s.Levels-1 {
			return fmt.Errorf("fabric: fat-tree with %d levels needs %d taper entries, have %d",
				s.Levels, s.Levels-1, len(s.Over))
		}
		for i, o := range s.Over {
			if !(o >= 1 && o <= maxOver) {
				return fmt.Errorf("fabric: level-%d oversubscription %v outside [1,%d]", i+1, o, maxOver)
			}
		}
		return nil
	case Dragonfly:
		if s.Groups < 1 || s.Groups > maxGroups {
			return fmt.Errorf("fabric: dragonfly groups %d outside [1,%d]", s.Groups, maxGroups)
		}
		if s.Routers < 1 || s.Routers > maxRouters {
			return fmt.Errorf("fabric: dragonfly routers %d outside [1,%d]", s.Routers, maxRouters)
		}
		if s.NodesPer < 1 || s.NodesPer > maxNodesPer {
			return fmt.Errorf("fabric: dragonfly nodes-per-router %d outside [1,%d]", s.NodesPer, maxNodesPer)
		}
		if s.Groups*s.Routers*s.Routers > maxDflyLoc {
			return fmt.Errorf("fabric: dragonfly local-link count %d exceeds %d", s.Groups*s.Routers*s.Routers, maxDflyLoc)
		}
		if !(s.LocalOver >= 1 && s.LocalOver <= maxOver) {
			return fmt.Errorf("fabric: dragonfly local oversubscription %v outside [1,%d]", s.LocalOver, maxOver)
		}
		if !(s.GlobalOver >= 1 && s.GlobalOver <= maxOver) {
			return fmt.Errorf("fabric: dragonfly global oversubscription %v outside [1,%d]", s.GlobalOver, maxOver)
		}
		return nil
	default:
		return fmt.Errorf("fabric: unknown kind %v", s.Kind)
	}
}

// CheckNodes reports whether the spec fits a cluster of the given node
// count. Fat-trees fit any count (trailing leaves may be partially
// populated, like the legacy two-level model); a dragonfly must tile
// the nodes exactly.
func (s *Spec) CheckNodes(nodes int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Kind == Dragonfly && s.Groups*s.Routers*s.NodesPer != nodes {
		return fmt.Errorf("fabric: dragonfly %dx%dx%d hosts %d nodes, cluster has %d",
			s.Groups, s.Routers, s.NodesPer, s.Groups*s.Routers*s.NodesPer, nodes)
	}
	return nil
}

// String renders the canonical space-free spec text; ParseSpec inverts
// it exactly.
func (s *Spec) String() string {
	switch s.Kind {
	case FatTree:
		overs := make([]string, len(s.Over))
		for i, o := range s.Over {
			overs[i] = formatFactor(o)
		}
		return fmt.Sprintf("ft:arity=%d,levels=%d,over=%s", s.Arity, s.Levels, strings.Join(overs, "/"))
	case Dragonfly:
		return fmt.Sprintf("dfly:groups=%d,routers=%d,nodes=%d,local=%s,global=%s",
			s.Groups, s.Routers, s.NodesPer, formatFactor(s.LocalOver), formatFactor(s.GlobalOver))
	default:
		return "flat"
	}
}

func formatFactor(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
