package netmodel

import (
	"testing"
	"testing/quick"

	"mha/internal/sim"
)

func TestThorValidates(t *testing.T) {
	if err := Thor().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ThetaGPU().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.BWHCA = 0 },
		func(p *Params) { p.BWCMA = -1 },
		func(p *Params) { p.BWCopy = 0 },
		func(p *Params) { p.BWMemAgg = 0 },
		func(p *Params) { p.AlphaHCA = -1 },
		func(p *Params) { p.StripeThreshold = -1 },
	}
	for i, mutate := range cases {
		p := Thor()
		mutate(p)
		if p.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	// The motivation experiment: intra-node CMA bandwidth is approximately
	// equal to 1 HCA, and 2 HCAs roughly double it at large sizes.
	p := Thor()
	n := 4 << 20
	bwOf := func(d sim.Duration) float64 { return float64(n) / d.Seconds() }
	cma := bwOf(p.CMATime(n, 1))
	one := bwOf(p.HCATime(n, 1))
	two := bwOf(p.HCATime(n, 2))
	if r := one / cma; r < 0.85 || r > 1.25 {
		t.Fatalf("1 HCA / CMA bandwidth ratio = %.2f, want ~1", r)
	}
	if r := two / one; r < 1.8 || r > 2.05 {
		t.Fatalf("2 HCA / 1 HCA bandwidth ratio = %.2f, want ~2", r)
	}
}

func TestStripingThreshold(t *testing.T) {
	p := Thor()
	if p.ShouldStripe(8 << 10) {
		t.Fatal("8KB should not stripe")
	}
	if !p.ShouldStripe(16 << 10) {
		t.Fatal("16KB should stripe")
	}
}

func TestCongestionFactor(t *testing.T) {
	p := Thor()
	if f := p.CongestionCMA(1<<20, 1); f != 1 {
		t.Fatalf("single copy congestion = %f, want 1", f)
	}
	if f := p.CongestionCMA(512, 32); f != 1 {
		t.Fatalf("small message congestion = %f, want 1", f)
	}
	f4 := p.CongestionCMA(1<<20, 4)
	f32 := p.CongestionCMA(1<<20, 32)
	if f32 <= f4 {
		t.Fatalf("congestion not increasing: f(4)=%f f(32)=%f", f4, f32)
	}
	// 32 concurrent CMA copies oversubscribe the uncached-copy pool.
	if f32 < 1.5 {
		t.Fatalf("f(32) = %f, want visible congestion", f32)
	}
	// Shm pipeline copies are cache-assisted: far milder congestion.
	if shm := p.CongestionShm(1<<20, 32); shm >= f32 {
		t.Fatalf("shm congestion %f should be milder than CMA %f", shm, f32)
	}
}

func TestRailChunk(t *testing.T) {
	got := AppendRailChunk(nil, 10, 3)
	if got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("AppendRailChunk(nil, 10, 3) = %v", got)
	}
	total := 0
	for _, c := range AppendRailChunk(nil, 1<<20+7, 8) {
		total += c
	}
	if total != 1<<20+7 {
		t.Fatalf("chunks don't sum: %d", total)
	}
}

func TestRendezvousAddsLatency(t *testing.T) {
	p := Thor()
	below := p.HCATime(p.RendezvousThreshold-1, 1)
	at := p.HCATime(p.RendezvousThreshold, 1)
	if at-below < p.AlphaRendezvous {
		t.Fatalf("rendezvous step missing: %v -> %v", below, at)
	}
}

// Property: striping over more rails never makes a transfer slower.
func TestQuickMoreRailsNeverSlower(t *testing.T) {
	p := Thor()
	f := func(n uint32, r uint8) bool {
		size := int(n%(16<<20)) + 1
		rails := int(r)%7 + 1
		return p.HCATime(size, rails+1) <= p.HCATime(size, rails)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendRailChunk always partitions n into `rails` pieces differing by
// at most one byte.
func TestQuickRailChunkBalanced(t *testing.T) {
	f := func(n uint32, r uint8) bool {
		size := int(n % (64 << 20))
		rails := int(r)%8 + 1
		chunks := AppendRailChunk(nil, size, rails)
		if len(chunks) != rails {
			return false
		}
		sum, mn, mx := 0, chunks[0], chunks[0]
		for _, c := range chunks {
			sum += c
			if c < mn {
				mn = c
			}
			if c > mx {
				mx = c
			}
		}
		return sum == size && mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: congestion is monotone in concurrency and never below 1.
func TestQuickCongestionMonotone(t *testing.T) {
	p := Thor()
	f := func(n uint32, k uint8) bool {
		size := int(n % (8 << 20))
		k1 := int(k)%64 + 1
		f1 := p.CongestionShm(size, k1)
		f2 := p.CongestionShm(size, k1+1)
		return f1 >= 1 && f2 >= f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHCATimePanicsOnZeroRails(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Thor().HCATime(1024, 0)
}

func TestStringNonEmpty(t *testing.T) {
	if Thor().String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDerivedCalibrations(t *testing.T) {
	if NumaThor().InterSocketFactor != 1.5 {
		t.Fatal("NumaThor factor")
	}
	if err := NumaThor().Validate(); err != nil {
		t.Fatal(err)
	}
	o := ThorWithOverhead(sim.FromMicros(1))
	if o.AlphaPost != sim.FromMicros(1) {
		t.Fatal("ThorWithOverhead")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Thor()
	bad.AlphaPost = -1
	if bad.Validate() == nil {
		t.Fatal("negative AlphaPost should fail")
	}
	bad2 := Thor()
	bad2.InterSocketFactor = 0.5
	if bad2.Validate() == nil {
		t.Fatal("factor < 1 should fail")
	}
}

func TestSocketFactorDefaults(t *testing.T) {
	p := Thor()
	p.InterSocketFactor = 0 // unset reads as flat
	if p.SocketFactor() != 1 {
		t.Fatal("unset socket factor should read 1")
	}
	if NumaThor().SocketFactor() != 1.5 {
		t.Fatal("NumaThor socket factor")
	}
}

func TestCopyTimeShape(t *testing.T) {
	p := Thor()
	single := p.CopyTime(1<<20, 1)
	congested := p.CopyTime(1<<20, 64)
	if congested <= single {
		t.Fatal("64-way copy congestion missing")
	}
	if p.CopyTime(0, 1) != p.AlphaCopy {
		t.Fatal("zero-byte copy should cost alpha only")
	}
}

func TestRailBWScale(t *testing.T) {
	p := Thor()
	if p.RailBW(0) != p.BWHCA || p.RailBW(1) != p.BWHCA {
		t.Fatal("unset/nominal scale should price at BWHCA")
	}
	if p.RailBW(0.5) != p.BWHCA*0.5 {
		t.Fatal("scaled rail should price proportionally")
	}
}

func TestRailWeights(t *testing.T) {
	got := RailWeights([]float64{1, 0.5}, nil)
	if got[0] != 1 || got[1] != 0.5 {
		t.Fatalf("nil scales: %v", got)
	}
	got = RailWeights([]float64{1, 0.5}, []float64{2, 1})
	if got[0] != 2 || got[1] != 0.5 {
		t.Fatalf("combined weights: %v", got)
	}
	pieces := AppendRailChunkWeighted(nil, 3000, RailWeights([]float64{1, 1}, []float64{2, 1}))
	if pieces[0] != 2000 || pieces[1] != 1000 {
		t.Fatalf("weighted stripe: %v", pieces)
	}
}
