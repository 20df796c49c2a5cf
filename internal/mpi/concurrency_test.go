package mpi

import (
	"strings"
	"sync"
	"testing"

	"mha/internal/sim"
	"mha/internal/topology"
)

// concurrentWorld builds a 2-node world with two inter-node communicators
// owned by different jobs: job1 on world ranks {0, 2}, job2 on {1, 3}.
func concurrentWorld() (*World, *Comm, *Comm) {
	w := New(Config{Topo: topology.New(2, 2, 2)})
	a := w.NewComm([]int{0, 2})
	a.SetOwner("job1")
	b := w.NewComm([]int{1, 3})
	b.SetOwner("job2")
	return w, a, b
}

// TestConcurrentCommsShareRails: two job communicators exchange across the
// same node rails in overlapping virtual time; the run stays clean, the
// teardown audit passes, and the rails record a job owner.
func TestConcurrentCommsShareRails(t *testing.T) {
	w, a, b := concurrentWorld()
	err := w.Run(func(p *Proc) {
		c := a
		if a.Rank(p) < 0 {
			c = b
		}
		me := c.Rank(p)
		peer := 1 - me
		rreq := p.Irecv(c, peer, 5)
		sreq := p.Isend(c, peer, 5, NewBuf(64<<10))
		if got := p.Wait(rreq); got.Len() != 64<<10 {
			t.Errorf("rank %d received %d bytes, want %d", p.Rank(), got.Len(), 64<<10)
		}
		p.Wait(sreq)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyTeardown(); err != nil {
		t.Fatalf("clean concurrent exchange flagged: %v", err)
	}
	// Both jobs stripe across the same rails, so LastOwner holds whichever
	// job acquired each rail most recently — but every rail that carried
	// traffic must be attributed to SOME job, never left blank.
	marked := 0
	for _, nd := range w.nodes {
		for _, h := range nd.hcas {
			for _, res := range []interface{ LastOwner() string }{h.tx, h.rx} {
				o := res.LastOwner()
				if o == "" {
					continue
				}
				if !strings.HasPrefix(o, "job") {
					t.Fatalf("rail owner %q is not a job label", o)
				}
				marked++
			}
		}
	}
	if marked == 0 {
		t.Fatal("no rail recorded a job owner despite inter-node traffic")
	}
}

// TestVerifyTeardownAttributesLeakToJob: an unreceived send posted on an
// owned communicator is reported against that job's label, not as an
// anonymous count.
func TestVerifyTeardownAttributesLeakToJob(t *testing.T) {
	w, a, b := concurrentWorld()
	err := w.Run(func(p *Proc) {
		c := a
		if a.Rank(p) < 0 {
			c = b
		}
		me := c.Rank(p)
		peer := 1 - me
		// job1 exchanges cleanly; job2's comm-rank 0 sends into the void.
		switch {
		case c == a:
			rreq := p.Irecv(c, peer, 5)
			sreq := p.Isend(c, peer, 5, NewBuf(4096))
			p.Wait(rreq)
			p.Wait(sreq)
		case me == 0:
			p.Wait(p.Isend(c, peer, 5, NewBuf(4096)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	terr := w.VerifyTeardown()
	if terr == nil {
		t.Fatal("leaked job2 send not flagged")
	}
	msg := terr.Error()
	if !strings.Contains(msg, "never received") || !strings.Contains(msg, "job2: 1") {
		t.Fatalf("leak not attributed to job2: %v", msg)
	}
	if strings.Contains(msg, "job1") {
		t.Fatalf("clean job1 wrongly implicated: %v", msg)
	}
}

// TestWorldsRunSideBySide runs two 8-rank worlds to completion on two
// goroutines at once, as explore's worker pool and the tuner's handlers do.
// A world, its engine and its spare records belong to the goroutine that
// runs it and no lock guards them: under -race anything one world shares
// with the other shows, and both must end at the same virtual time.
func TestWorldsRunSideBySide(t *testing.T) {
	const rounds = 50
	var ends [2]sim.Time
	var wg sync.WaitGroup
	for g := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := New(Config{Topo: topology.New(2, 4, 2)})
			err := w.Run(func(p *Proc) {
				c := w.CommWorld()
				n := p.Size()
				next, prev := (p.Rank()+1)%n, (p.Rank()-1+n)%n
				for k := 0; k < rounds; k++ {
					b := NewBuf(512)
					b.Data()[0] = byte(p.Rank() + k)
					if got := p.SendRecv(c, next, k, b, prev, k); got.Data()[0] != byte(prev+k) {
						t.Errorf("world %d rank %d round %d: got %d from rank %d", g, p.Rank(), k, got.Data()[0], prev)
					}
				}
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.VerifyTeardown(); err != nil {
				t.Error(err)
			}
			ends[g] = w.Makespan()
		}()
	}
	wg.Wait()
	if ends[0] != ends[1] || ends[0] == 0 {
		t.Errorf("the two worlds ended at %v and %v, want one non-zero time", ends[0], ends[1])
	}
}
