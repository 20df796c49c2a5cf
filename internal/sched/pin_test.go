package sched_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"testing"

	"mha/internal/compose"
	"mha/internal/netmodel"
	"mha/internal/sched"
	"mha/internal/topology"
)

// digestReport writes one analysis to h: every Report field, or the
// error text.
func digestReport(h hash.Hash, name string, rep *sched.Report, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s: error %s\n", name, err)
		return
	}
	fmt.Fprintf(h, "%s: cost=%d steps=%v transfers=%d pulls=%d copies=%d reduces=%d wire=%d intra=%d\n",
		name, rep.Cost, rep.StepCosts, rep.Transfers, rep.Pulls, rep.Copies, rep.Reduces, rep.WireBytes, rep.IntraBytes)
}

// seedConstructions is every schedule the synthesizer seeds a key with:
// the ring, recursive doubling, both AutoOffload MHAs, the 16-plan MHA
// option grid and the direct-rail construction.
func seedConstructions(topo topology.Cluster, prm *netmodel.Params, msg int) []*sched.Schedule {
	ss := []*sched.Schedule{
		sched.Ring(topo, msg),
		sched.RecursiveDoubling(topo, msg),
		sched.TwoPhaseMHA(topo, prm, msg, sched.MHAOptions{Offload: sched.AutoOffload}),
		sched.TwoPhaseMHA(topo, prm, msg, sched.MHAOptions{Phase2: sched.Phase2RD, Offload: sched.AutoOffload}),
	}
	for _, d := range []int{0, topo.PPN - 1} {
		for _, p2 := range []sched.Phase2Alg{sched.Phase2Ring, sched.Phase2RD} {
			for _, seq := range []bool{false, true} {
				for _, push := range []bool{false, true} {
					o := sched.MHAOptions{Phase2: p2, Offload: d, Sequential: seq, Push: push}
					ss = append(ss, sched.TwoPhaseMHA(topo, prm, msg, o))
				}
			}
		}
	}
	if s := sched.DirectRail(topo, msg); s != nil {
		ss = append(ss, s)
	}
	return ss
}

// TestAnalyzeReportsPinned pins what the analyzer says, field by field,
// about every seed construction on the benchmark's 55 tuner keys (health
// applied as the synthesizer applies it) and about every compose
// variant's lowering, reductions included, on three small shapes under
// two health vectors. One digest per key or shape: a change to how the
// hold matrix or the pricing is represented must leave all of them.
func TestAnalyzeReportsPinned(t *testing.T) {
	prm := netmodel.Thor()
	var got strings.Builder
	for _, nodes := range []int{2, 4, 8} {
		for _, ppn := range []int{2, 4, 8} {
			for _, msg := range []int{4 << 10, 64 << 10, 1 << 20} {
				for _, health := range [][]float64{nil, {1, 0.5}} {
					pinSeeds(&got, topology.New(nodes, ppn, 2), prm, msg, health)
				}
			}
		}
	}
	pinSeeds(&got, topology.New(8, 16, 2), prm, 64<<10, nil)
	for _, shape := range [][2]int{{2, 2}, {2, 4}, {4, 4}} {
		topo := topology.New(shape[0], shape[1], 2)
		for _, health := range [][]float64{nil, {1, 0.5}} {
			h := sha256.New()
			for _, msg := range []int{1000, 4 << 10} {
				for _, v := range compose.Variants() {
					name := fmt.Sprintf("%s/%d", v.Name, msg)
					plan, err := compose.Lower(v.Comp, compose.NewHierarchy(topo), msg, prm)
					if err != nil {
						digestReport(h, name, nil, err)
						continue
					}
					rep, err := plan.Analyze(prm, health)
					digestReport(h, name, rep, err)
				}
			}
			fmt.Fprintf(&got, "compose %dx%dx2/%v: %x\n", shape[0], shape[1], health, h.Sum(nil)[:8])
		}
	}
	if got.String() != reportsGolden[1:] {
		t.Errorf("analyzer reports moved:\n%s", got.String())
	}
}

func pinSeeds(out *strings.Builder, topo topology.Cluster, prm *netmodel.Params, msg int, health []float64) {
	h := sha256.New()
	for _, s := range seedConstructions(topo, prm, msg) {
		s = sched.ApplyHealth(s, health)
		rep, err := sched.AnalyzeHealth(s, prm, health)
		digestReport(h, s.Name, rep, err)
	}
	fmt.Fprintf(out, "%dx%dx%d/%d/%v: %x\n", topo.Nodes, topo.PPN, topo.HCAs, msg, health, h.Sum(nil)[:8])
}

const reportsGolden = `
2x2x2/4096/[]: 7c5a9836eab43c51
2x2x2/4096/[1 0.5]: 22e4409c78bff749
2x2x2/65536/[]: a712e13722258ca7
2x2x2/65536/[1 0.5]: 7a6e691eeef04e24
2x2x2/1048576/[]: b697ab0106efc40c
2x2x2/1048576/[1 0.5]: dd05a1708fdddde2
2x4x2/4096/[]: 8de8795c51c0a19a
2x4x2/4096/[1 0.5]: 4ec1417b26a345c9
2x4x2/65536/[]: e7d1e37f7738622c
2x4x2/65536/[1 0.5]: 7a65c0fe55636fec
2x4x2/1048576/[]: ab3cf670c348bdeb
2x4x2/1048576/[1 0.5]: 0e787e0a7d8f3da1
2x8x2/4096/[]: 8477a3a7b9fae9d8
2x8x2/4096/[1 0.5]: 128358933436366b
2x8x2/65536/[]: d1e6e820c66b8e41
2x8x2/65536/[1 0.5]: 8ab3a659df2d7f3b
2x8x2/1048576/[]: 53bd03b62c44dd74
2x8x2/1048576/[1 0.5]: 7147fb5141027049
4x2x2/4096/[]: 5720652ac61e6d1c
4x2x2/4096/[1 0.5]: 4a00b8b6406346eb
4x2x2/65536/[]: 46ae03bbaccb8426
4x2x2/65536/[1 0.5]: 79e7d11be8ae3d3a
4x2x2/1048576/[]: b6e93411abbf3e4e
4x2x2/1048576/[1 0.5]: a50300ca2600b285
4x4x2/4096/[]: e42517fb20755038
4x4x2/4096/[1 0.5]: e08f9ef8064a6446
4x4x2/65536/[]: d1a444fe712031ae
4x4x2/65536/[1 0.5]: d3aee44745e9edaf
4x4x2/1048576/[]: 8ba1666e1feecbbf
4x4x2/1048576/[1 0.5]: 0eccd48604886755
4x8x2/4096/[]: ce447b437e969a3c
4x8x2/4096/[1 0.5]: 31e828f0c95ac76b
4x8x2/65536/[]: 9446f30b7e2c76c6
4x8x2/65536/[1 0.5]: 0d2a91e2606ecf58
4x8x2/1048576/[]: 9e301faa1dd3e5f5
4x8x2/1048576/[1 0.5]: ec176a52ca44bf0e
8x2x2/4096/[]: d2acce19e36f673d
8x2x2/4096/[1 0.5]: 18bf57b5dd85af2a
8x2x2/65536/[]: 042c16e0d4f5ec58
8x2x2/65536/[1 0.5]: 70f4597bccfd7dcb
8x2x2/1048576/[]: 901f1225a8b9783b
8x2x2/1048576/[1 0.5]: bba4ba45efb149db
8x4x2/4096/[]: ff4956a660e9c604
8x4x2/4096/[1 0.5]: 5330f1b236813d81
8x4x2/65536/[]: 47fad13b423ac9f4
8x4x2/65536/[1 0.5]: 41f63eaa30c08a74
8x4x2/1048576/[]: a9dd58527269a6d4
8x4x2/1048576/[1 0.5]: a25269642c5b93be
8x8x2/4096/[]: 52f33a397770b577
8x8x2/4096/[1 0.5]: 576906e910cea36c
8x8x2/65536/[]: fc1f0d33c8e11195
8x8x2/65536/[1 0.5]: f5f5ec4b5bb27023
8x8x2/1048576/[]: 8502c7da6292fc17
8x8x2/1048576/[1 0.5]: 708a1c5fecabde02
8x16x2/65536/[]: b6359d62a80d6ca8
compose 2x2x2/[]: 43eb34f1ceb60325
compose 2x2x2/[1 0.5]: 35bc1bf002c92acf
compose 2x4x2/[]: b66b019e08a9c974
compose 2x4x2/[1 0.5]: 27d8a844fe430e09
compose 4x4x2/[]: bf49e29c6440f661
compose 4x4x2/[1 0.5]: 8cc13ce2366d47be
`
