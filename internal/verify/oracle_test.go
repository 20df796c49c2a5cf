package verify

import (
	"reflect"
	"slices"
	"testing"

	"mha/internal/compose"
	"mha/internal/mpi"
	"mha/internal/topology"
)

// plant registers a deliberately broken variant for one test and removes
// it afterwards, so the whole-registry campaign tests never draw it.
func plant(t *testing.T, a Algorithm) {
	Register(a)
	t.Cleanup(func() {
		registry = slices.DeleteFunc(registry, func(x Algorithm) bool { return x.Name == a.Name })
	})
}

// specFill writes the collective's contract straight into recv without
// communicating, so a test variant is "a perfect run, then one planted
// defect". With no messages every rank finishes at virtual time 0 in
// spawn order, which makes the report order below derivable by hand:
// ranks ascending, blocks ascending, a rank's send-buffer report last.
func specFill(coll compose.Collective, p *mpi.Proc, recv mpi.Buf, m int) {
	d := recv.Data()
	for blk := 0; m > 0 && blk*m < len(d); blk++ {
		for i := 0; i < m; i++ {
			d[blk*m+i] = compose.ExpectByte(coll, 0, p.Size(), m, p.Rank(), blk, i)
		}
	}
}

// TestOracleViolationText pins the oracle's output byte for byte — kinds,
// order, the first-mismatch text per corrupt block, the send-clobber
// text and the maxOracleReports cap — for one planted defect per class
// and per collective geometry. All scenarios are 2x2 ranks, 8-byte blocks.
func TestOracleViolationText(t *testing.T) {
	const m = 8
	type defect func(p *mpi.Proc, send, recv []byte)
	cases := []struct {
		name   string
		coll   compose.Collective
		msg    int
		defect defect
		want   []string
	}{
		{"swapped blocks", compose.Allgather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 2 {
					for i := 0; i < m; i++ {
						recv[i], recv[m+i] = recv[m+i], recv[i]
					}
				}
			},
			[]string{
				"oracle: rank 2: block 0 byte 0 = 0x86, want 0x03",
				"oracle: rank 2: block 1 byte 0 = 0x03, want 0x86",
			}},
		{"off-by-one value", compose.Allgather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 3 {
					recv[1*m+5]++
				}
			},
			[]string{"oracle: rank 3: block 1 byte 5 = 0xaa, want 0xa9"}},
		{"block landed one byte late", compose.Allgather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 1 {
					copy(recv[2*m+1:3*m], recv[2*m:3*m-1])
				}
			},
			[]string{"oracle: rank 1: block 2 byte 1 = 0x09, want 0x10"}},
		{"stale last byte", compose.Allgather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 0 {
					recv[3*m+m-1] = 0
				}
			},
			[]string{"oracle: rank 0: block 3 byte 7 = 0x00, want 0xbd"}},
		{"clobbered send buffer", compose.Allgather, m,
			func(p *mpi.Proc, send, _ []byte) {
				if p.Rank() == 1 {
					send[3] ^= 0xff
					send[6] ^= 0xff
				}
			},
			[]string{"oracle: rank 1: send buffer clobbered at byte 3"}},
		{"wrong block and clobbered send on one rank", compose.Allgather, m,
			func(p *mpi.Proc, send, recv []byte) {
				if p.Rank() == 1 {
					send[0]++
				}
				if p.Rank() >= 1 {
					recv[2*m+4] = 0xee
				}
			},
			[]string{
				"oracle: rank 1: block 2 byte 4 = 0xee, want 0x25",
				"oracle: rank 1: send buffer clobbered at byte 0",
				"oracle: rank 2: block 2 byte 4 = 0xee, want 0x25",
				"oracle: rank 3: block 2 byte 4 = 0xee, want 0x25",
			}},
		{"gather writes a non-root receive buffer", compose.Gather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 2 {
					recv[1*m+2] = 0x11
				}
			},
			[]string{"oracle: rank 2: block 1 byte 2 = 0x11, want 0x00"}},
		{"gather root misses a block", compose.Gather, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 0 {
					copy(recv[3*m:], make([]byte, m))
				}
			},
			[]string{"oracle: rank 0: block 3 byte 0 = 0x00, want 0x8c"}},
		{"reduce-scatter drops rank 1's contribution", compose.ReduceScatter, m,
			func(p *mpi.Proc, _, recv []byte) {
				for i := range recv {
					recv[i] -= compose.PatternByte(0, 1, p.Rank()*m+i)
				}
			},
			[]string{
				"oracle: rank 0: block 0 byte 0 = 0x98, want 0x1e",
				"oracle: rank 1: block 0 byte 0 = 0x40, want 0xfe",
				"oracle: rank 2: block 0 byte 0 = 0xe8, want 0xde",
				"oracle: rank 3: block 0 byte 0 = 0x90, want 0xbe",
			}},
		{"allreduce drops rank 1's contribution: more than 8 corrupt blocks", compose.Allreduce, m,
			func(p *mpi.Proc, send, recv []byte) {
				for i := range recv {
					recv[i] -= compose.PatternByte(0, 1, i)
				}
				if p.Rank() == 0 {
					send[9] = 0
				}
			},
			[]string{
				"oracle: rank 0: block 0 byte 0 = 0x98, want 0x1e",
				"oracle: rank 0: block 1 byte 0 = 0x40, want 0xfe",
				"oracle: rank 0: block 2 byte 0 = 0xe8, want 0xde",
				"oracle: rank 0: block 3 byte 0 = 0x90, want 0xbe",
				"oracle: rank 0: send buffer clobbered at byte 9",
				"oracle: rank 1: block 0 byte 0 = 0x98, want 0x1e",
				"oracle: rank 1: block 1 byte 0 = 0x40, want 0xfe",
				"oracle: rank 1: block 2 byte 0 = 0xe8, want 0xde",
			}},
		{"every block zero: capped at maxOracleReports", compose.Allgather, m,
			func(p *mpi.Proc, _, recv []byte) {
				copy(recv, make([]byte, len(recv)))
			},
			[]string{
				"oracle: rank 0: block 0 byte 0 = 0x00, want 0x03",
				"oracle: rank 0: block 1 byte 0 = 0x00, want 0x86",
				"oracle: rank 0: block 2 byte 0 = 0x00, want 0x09",
				"oracle: rank 0: block 3 byte 0 = 0x00, want 0x8c",
				"oracle: rank 1: block 0 byte 0 = 0x00, want 0x03",
				"oracle: rank 1: block 1 byte 0 = 0x00, want 0x86",
				"oracle: rank 1: block 2 byte 0 = 0x00, want 0x09",
				"oracle: rank 1: block 3 byte 0 = 0x00, want 0x8c",
			}},
		{"alltoall swaps the chunks of sources 0 and 3", compose.Alltoall, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 1 {
					for i := 0; i < m; i++ {
						recv[i], recv[3*m+i] = recv[3*m+i], recv[i]
					}
				}
			},
			[]string{
				"oracle: rank 1: block 0 byte 0 = 0xc4, want 0x3b",
				"oracle: rank 1: block 3 byte 0 = 0x3b, want 0xc4",
			}},
		{"scatter hands rank 2 its neighbour's chunk", compose.Scatter, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 2 {
					for i := range recv {
						recv[i] = compose.PatternByte(0, 0, 1*m+i)
					}
				}
			},
			[]string{"oracle: rank 2: block 0 byte 0 = 0x3b, want 0x73"}},
		{"bcast never reaches rank 3", compose.Bcast, m,
			func(p *mpi.Proc, _, recv []byte) {
				if p.Rank() == 3 {
					copy(recv, make([]byte, len(recv)))
				}
			},
			[]string{"oracle: rank 3: block 0 byte 0 = 0x00, want 0x03"}},
		{"zero-byte message: nothing to check", compose.Allgather, 0,
			func(p *mpi.Proc, _, _ []byte) {},
			nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plant(t, Algorithm{Name: "broken-planted", Coll: tc.coll,
				Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
					specFill(tc.coll, p, recv, tc.msg)
					tc.defect(p, send.Data(), recv.Data())
				}})
			sc := Scenario{Alg: "broken-planted", Cluster: topology.New(2, 2, 1), Msg: tc.msg, Seed: 1}
			var got []string
			for _, v := range Check(sc) {
				got = append(got, v.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestOracleViolationOrderAcrossKinds pins where oracle reports sit among
// the other kinds: a run that both leaks a message and delivers wrong
// bytes reports the teardown audit first, then the oracle.
func TestOracleViolationOrderAcrossKinds(t *testing.T) {
	plant(t, Algorithm{Name: "broken-planted", Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
		specFill(compose.Allgather, p, recv, send.Len())
		if p.Rank() == 0 {
			p.Isend(w.CommWorld(), 1, mpi.Tag(0, 12, 0), send)
			recv.Data()[0] = 0xff
		}
	}})
	sc := Scenario{Alg: "broken-planted", Cluster: topology.New(1, 2, 1), Msg: 4, Seed: 1}
	var kinds []string
	vs := Check(sc)
	for _, v := range vs {
		kinds = append(kinds, v.Kind)
	}
	if want := []string{"invariant", "oracle"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds %q, want %q (%v)", kinds, want, vs)
	}
	if got, want := vs[1].Detail, "rank 0: block 0 byte 0 = 0xff, want 0x03"; got != want {
		t.Errorf("oracle detail %q, want %q", got, want)
	}
}

// TestOracleViolationTextRealRun pins the same text for a communicating
// variant (verify_test.go's brokenRing): ranks report in the order the
// simulation finishes them, not in rank order, and the cap cuts the list
// mid-rank.
func TestOracleViolationTextRealRun(t *testing.T) {
	plant(t, Algorithm{Name: "broken-ring", Run: brokenRing})
	want := []string{
		"oracle: rank 0: block 1 byte 0 = 0x00, want 0x86",
		"oracle: rank 0: block 2 byte 0 = 0xa9, want 0x09",
		"oracle: rank 0: block 3 byte 0 = 0x33, want 0x8c",
		"oracle: rank 2: block 0 byte 0 = 0x00, want 0x03",
		"oracle: rank 2: block 1 byte 0 = 0x2d, want 0x86",
		"oracle: rank 2: block 2 byte 0 = 0xb7, want 0x09",
		"oracle: rank 3: block 0 byte 0 = 0x00, want 0x03",
		"oracle: rank 3: block 1 byte 0 = 0x26, want 0x86",
	}
	var got []string
	for _, v := range Check(Scenario{Alg: "broken-ring", Cluster: topology.New(2, 2, 1), Msg: 8, Seed: 1}) {
		got = append(got, v.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations:\n got %q\nwant %q", got, want)
	}
}

// TestSecondRunStartsClean: Check's second run reuses the first run's
// buffers, so it must find them as a fresh run would. A variant that
// writes its receive buffer only in the first world it sees fails the
// second run's oracle on every block, and one that clobbers its send
// buffer in the first world finds the pattern there again in the second.
func TestSecondRunStartsClean(t *testing.T) {
	const m = 8
	sc := Scenario{Alg: "broken-planted", Cluster: topology.New(2, 2, 1), Msg: m, Seed: 1}
	cases := []struct {
		name string
		run  func(p *mpi.Proc, send, recv mpi.Buf, first bool)
		want []string
	}{
		{"receive buffer written only in the first run",
			func(p *mpi.Proc, _, recv mpi.Buf, first bool) {
				if first {
					specFill(compose.Allgather, p, recv, m)
				}
			},
			[]string{
				"oracle: second run: rank 0: block 0 byte 0 = 0x00, want 0x03",
				"oracle: second run: rank 0: block 1 byte 0 = 0x00, want 0x86",
				"oracle: second run: rank 0: block 2 byte 0 = 0x00, want 0x09",
				"oracle: second run: rank 0: block 3 byte 0 = 0x00, want 0x8c",
				"oracle: second run: rank 1: block 0 byte 0 = 0x00, want 0x03",
				"oracle: second run: rank 1: block 1 byte 0 = 0x00, want 0x86",
				"oracle: second run: rank 1: block 2 byte 0 = 0x00, want 0x09",
				"oracle: second run: rank 1: block 3 byte 0 = 0x00, want 0x8c",
			}},
		{"send buffer clobbered in the first run",
			func(p *mpi.Proc, send, recv mpi.Buf, first bool) {
				if !first && send.Data()[3] != compose.PatternByte(0, p.Rank(), 3) {
					panic("the second run started from the first run's send buffer")
				}
				specFill(compose.Allgather, p, recv, m)
				if first && p.Rank() == 1 {
					send.Data()[3] ^= 0xff
				}
			},
			[]string{"oracle: rank 1: send buffer clobbered at byte 3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *mpi.World
			plant(t, Algorithm{Name: "broken-planted",
				Run: func(p *mpi.Proc, w *mpi.World, send, recv mpi.Buf) {
					if first == nil {
						first = w
					}
					tc.run(p, send, recv, w == first)
				}})
			var got []string
			for _, v := range Check(sc) {
				got = append(got, v.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestImageMatchesSpec holds the tabulated image to the written contract:
// every byte of every expected block equals ExpectByte, and a rank's blocks
// add up to exactly the receive buffer Geometry sizes. Besides a few
// small block sizes, the send lengths sit on either side of the
// pattern's 256-byte period, and one is long enough for the image's
// doubling copies to run several rounds and end on a partial one. A
// collective whose send buffer holds n blocks gets the smallest block
// size whose send buffer reaches each length, so every n sees them all.
func TestImageMatchesSpec(t *testing.T) {
	for _, coll := range compose.Collectives() {
		for _, n := range []int{1, 2, 3, 5, 8} {
			blocks, _ := compose.Geometry(coll, n, 1)
			ms := []int{0, 1, 7, 64}
			for _, L := range []int{0, 1, 255, 256, 257, 64<<10 + 3} {
				ms = append(ms, (L+blocks-1)/blocks)
			}
			for _, m := range ms {
				im := newImage(coll, n, m)
				sendLen, recvLen := compose.Geometry(coll, n, m)
				for me := 0; me < n; me++ {
					if len(im.pat[me]) != sendLen {
						t.Fatalf("%v n=%d m=%d: send image of rank %d has %d bytes, want %d",
							coll, n, m, me, len(im.pat[me]), sendLen)
					}
					for i, b := range im.pat[me] {
						if b != compose.PatternByte(0, me, i) {
							t.Fatalf("%v n=%d m=%d: send image of rank %d byte %d = %#02x, PatternByte says %#02x",
								coll, n, m, me, i, b, compose.PatternByte(0, me, i))
						}
					}
					total := 0
					for blk := 0; m > 0 && blk*m < recvLen; blk++ {
						w := im.want(me, blk)
						total += len(w)
						for i, b := range w {
							if e := compose.ExpectByte(coll, 0, n, m, me, blk, i); b != e {
								t.Fatalf("%v n=%d m=%d: want(%d, %d)[%d] = %#02x, ExpectByte says %#02x",
									coll, n, m, me, blk, i, b, e)
							}
						}
					}
					if total != recvLen {
						t.Fatalf("%v n=%d m=%d rank %d: blocks cover %d bytes, recv buffer is %d",
							coll, n, m, me, total, recvLen)
					}
				}
			}
		}
	}
}
