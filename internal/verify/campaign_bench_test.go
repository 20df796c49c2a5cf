package verify

import (
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkCheckCampaign is one op = Check on every scenario of the
// benchmark's verify-payload pool (benchmark/verify_payload.go): the 400
// scenarios Campaign(400, 1, ...) draws, with its default cap of 48 ranks.
// B/op is what a campaign allocates. Run it with -benchmem.
func BenchmarkCheckCampaign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	algs := Algorithms()
	pool := make([]Scenario, 400)
	for i := range pool {
		pool[i] = Generate(rng, algs, 48)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range pool {
			if vs := Check(sc); len(vs) > 0 {
				b.Fatalf("%s: %v", sc.Spec(), vs[0])
			}
		}
	}
}

// TestCheckBytesFence bounds what one Check of the pool's heaviest
// scenario allocates: the derived allreduce on 6x8 cyclic at 8 KiB. It
// was 202.6 MB when each run allocated its own image and rank buffers and
// every send its own payload copy; it is 90.9 MB with one image and one
// set of buffers per Check and payloads recycled, and the fence is that
// plus 15 %. A second Check of it finds its 37.7 MB of rank arrays in the
// store and allocates 53.0 MB; its fence is that plus 15 %.
func TestCheckBytesFence(t *testing.T) {
	const fence = 104_600_000
	const warmFence = 61_000_000
	sc, err := ParseSpec("alg=compose-ar nodes=6 ppn=8 hcas=1 sockets=0 layout=cyclic msg=8192 seed=480344033 jitter=0 blind=0 " +
		"faults=flap node=2 rail=0 period=330363ns down=115333ns from=412422ns until=2ms; down node=3 rail=0 from=150541ns until=466711ns; " +
		"down node=4 rail=0 from=229481ns until=673990ns; down node=5 rail=0 from=783094ns until=1232588ns")
	if err != nil {
		t.Fatal(err)
	}
	emptyStore()
	for _, c := range []struct {
		name  string
		fence uint64
	}{{"cold", fence}, {"warm", warmFence}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if vs := Check(sc); len(vs) > 0 {
			t.Fatalf("%v", vs)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.fence {
			t.Errorf("a %s Check allocated %d bytes, fence is %d", c.name, got, c.fence)
		} else {
			t.Logf("a %s Check allocated %d bytes", c.name, got)
		}
	}
}
