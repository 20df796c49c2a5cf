package explore

import "testing"

// TestExplorationPinned holds whole reports — every count of
// reportFingerprint and every counterexample's spec, shrunk spec and
// violations — to literals recorded before the explorer's bookkeeping
// moved from maps to slices. Which backtrack candidate is taken next,
// which sibling goes to sleep first and what the shrinker settles on all
// depend on iteration order, so a rewrite that visits the same points in
// another order moves at least one of these lines. Some searches run out,
// some stop at MaxExecs or MaxCounterexamples, one is unreduced.
func TestExplorationPinned(t *testing.T) {
	registerOrderBug()
	for _, tc := range []struct {
		name string
		opt  Options
		want string
	}{
		{
			name: "rd 2x2x2, stopped at 600",
			opt:  Options{Algs: []string{"rd"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, MaxExecs: 600},
			want: "" +
				"execs=600 steps=15000 est=1.560674304e+11 complete=false ces=0\n" +
				"rd none execs=600 steps=15000 decisions=3112 maxf=8 est=1.560674304e+11 adds=608 skips=0 precise=7200 fallback=0 redundant=0 complete=false\n",
		},
		{
			name: "sched-mha 2x2x2, stopped at 600",
			opt:  Options{Algs: []string{"sched-mha"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, MaxExecs: 600},
			want: "" +
				"execs=600 steps=18000 est=1.348422598656e+14 complete=false ces=0\n" +
				"sched-mha none execs=600 steps=18000 decisions=4424 maxf=8 est=1.348422598656e+14 adds=608 skips=0 precise=7200 fallback=0 redundant=0 complete=false\n",
		},
		{
			name: "ring 2x2x2 under every single-rail fault, complete",
			opt:  Options{Algs: []string{"ring"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, FaultBudget: 1},
			want: "" +
				"execs=720 steps=25920 est=9.246326390784e+14 complete=true ces=0\n" +
				"ring none execs=144 steps=5184 decisions=2887 maxf=8 est=1.8492652781568e+14 adds=143 skips=0 precise=864 fallback=0 redundant=0 complete=true\n" +
				"ring node0.rail0 execs=144 steps=5184 decisions=2887 maxf=8 est=1.8492652781568e+14 adds=143 skips=0 precise=864 fallback=0 redundant=0 complete=true\n" +
				"ring node0.rail1 execs=144 steps=5184 decisions=2887 maxf=8 est=1.8492652781568e+14 adds=143 skips=0 precise=864 fallback=0 redundant=0 complete=true\n" +
				"ring node1.rail0 execs=144 steps=5184 decisions=2887 maxf=8 est=1.8492652781568e+14 adds=143 skips=0 precise=864 fallback=0 redundant=0 complete=true\n" +
				"ring node1.rail1 execs=144 steps=5184 decisions=2887 maxf=8 est=1.8492652781568e+14 adds=143 skips=0 precise=864 fallback=0 redundant=0 complete=true\n",
		},
		{
			name: "compose-rs 1x3x2, stopped at 300",
			opt:  Options{Algs: []string{"compose-rs"}, Nodes: 1, PPN: 3, HCAs: 2, Msg: 2, MaxExecs: 300},
			want: "" +
				"execs=300 steps=8700 est=7.1663616e+09 complete=false ces=0\n" +
				"compose-rs none execs=300 steps=8700 decisions=889 maxf=6 est=7.1663616e+09 adds=309 skips=0 precise=3900 fallback=0 redundant=0 complete=false\n",
		},
		{
			name: "mha 2x2x2 (sleep sets, fallback, redundant replays), stopped at 500",
			opt:  Options{Algs: []string{"mha"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8, MaxExecs: 500},
			want: "" +
				"execs=500 steps=21377 est=1.537849005315195e+20 complete=false ces=0\n" +
				"mha none execs=500 steps=21377 decisions=2813 maxf=12 est=1.537849005315195e+20 adds=517 skips=662 precise=8537 fallback=840 redundant=910 complete=false\n",
		},
		{
			name: "order-bug 1x3x2 under every single-rail fault, two counterexamples each",
			opt:  Options{Algs: []string{"order-bug"}, Nodes: 1, PPN: 3, HCAs: 2, Msg: 2, FaultBudget: 1, MaxCounterexamples: 2, ShrinkBudget: 20},
			want: "" +
				"execs=12 steps=264 est=4.7029248e+10 complete=false ces=6\n" +
				"order-bug none execs=4 steps=88 decisions=27 maxf=7 est=1.5676416e+10 adds=15 skips=0 precise=39 fallback=0 redundant=0 complete=false\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.0.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.1.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n" +
				"order-bug node0.rail0 execs=4 steps=88 decisions=27 maxf=7 est=1.5676416e+10 adds=15 skips=0 precise=39 fallback=0 redundant=0 complete=false\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=node0.rail0 sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.0.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=node0.rail0 sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.1.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n" +
				"order-bug node0.rail1 execs=4 steps=88 decisions=27 maxf=7 est=1.5676416e+10 adds=15 skips=0 precise=39 fallback=0 redundant=0 complete=false\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=node0.rail1 sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.0.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=node0.rail1 sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.1.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=1 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.2 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n",
		},
		{
			name: "order-bug 2x2x2, canonical schedule already fails",
			opt:  Options{Algs: []string{"order-bug"}, Nodes: 2, PPN: 2, HCAs: 2, Msg: 8},
			want: "" +
				"execs=3 steps=84 est=2.24737099776e+13 complete=false ces=3\n" +
				"order-bug none execs=3 steps=84 decisions=43 maxf=8 est=2.24737099776e+13 adds=10 skips=0 precise=20 fallback=0 redundant=0 complete=false\n" +
				"  ce alg=order-bug nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0 | alg=order-bug nodes=2 ppn=2 hcas=2 msg=1 fault=none sched=canonical | [oracle: rank 2: block 0 byte 0 = 0x8c, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86 oracle: rank 2: block 3 byte 0 = 0x86, want 0x8c oracle: rank 3: block 0 byte 0 = 0x09, want 0x03 oracle: rank 3: block 1 byte 0 = 0x03, want 0x86 oracle: rank 3: block 2 byte 0 = 0x86, want 0x09]\n" +
				"  ce alg=order-bug nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.0.2.0.0.0.0.0.0.0.0 | alg=order-bug nodes=2 ppn=2 hcas=2 msg=1 fault=none sched=canonical | [oracle: rank 2: block 0 byte 0 = 0x8c, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86 oracle: rank 2: block 3 byte 0 = 0x86, want 0x8c oracle: rank 3: block 0 byte 0 = 0x09, want 0x03 oracle: rank 3: block 1 byte 0 = 0x03, want 0x86 oracle: rank 3: block 2 byte 0 = 0x86, want 0x09]\n" +
				"  ce alg=order-bug nodes=2 ppn=2 hcas=2 msg=8 fault=none sched=0.0.0.0.0.0.0.0.0.0.2.0.0.0.0.0.0.0.0.0.0.0.0 | alg=order-bug nodes=2 ppn=2 hcas=2 msg=1 fault=none sched=canonical | [oracle: rank 2: block 0 byte 0 = 0x8c, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86 oracle: rank 2: block 3 byte 0 = 0x86, want 0x8c oracle: rank 3: block 0 byte 0 = 0x09, want 0x03 oracle: rank 3: block 1 byte 0 = 0x03, want 0x86 oracle: rank 3: block 2 byte 0 = 0x86, want 0x09]\n",
		},
		{
			name: "full enumeration of rd and order-bug 1x3x2, stopped at 200",
			opt:  Options{Algs: []string{"rd", "order-bug"}, Nodes: 1, PPN: 3, HCAs: 2, Msg: 2, MaxExecs: 200, Full: true, MaxCounterexamples: 1, ShrinkBudget: 10},
			want: "" +
				"execs=321 steps=8062 est=1.628107776e+12 complete=false ces=1\n" +
				"rd none execs=200 steps=5400 decisions=163 maxf=6 est=1.61243136e+12 adds=0 skips=0 precise=0 fallback=0 redundant=717 complete=false\n" +
				"order-bug none execs=121 steps=2662 decisions=104 maxf=7 est=1.5676416e+10 adds=0 skips=0 precise=0 fallback=0 redundant=492 complete=false\n" +
				"  ce alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.1.1.0.0.0 | alg=order-bug nodes=1 ppn=3 hcas=2 msg=2 fault=none sched=0.0.0.0.0.0.0.0.0.0.0.0.0.1.1 | [oracle: rank 2: block 0 byte 0 = 0x86, want 0x03 oracle: rank 2: block 1 byte 0 = 0x03, want 0x86]\n",
		},
	} {
		rep, err := Run(tc.opt)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := reportFingerprint(rep); got != tc.want {
			t.Errorf("%s: report moved:\n--- got\n%s--- recorded\n%s", tc.name, got, tc.want)
		}
	}
}
