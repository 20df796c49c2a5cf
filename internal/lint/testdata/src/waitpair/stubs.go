// Package waitpair is the fixture for the waitpair pass. The stubs
// mirror the mpi request API shapes the pass matches by name.
package waitpair

type Request struct{ done bool }

type Buf struct{}

type Proc struct{}

func (p *Proc) Isend(dst, tag int, data Buf) *Request { return &Request{} }

func (p *Proc) Irecv(src, tag int) *Request { return &Request{} }

func (p *Proc) Wait(r *Request) Buf { return Buf{} }

func (p *Proc) Waitall(rs ...*Request) []Buf { return nil }

func (p *Proc) WaitInto(r *Request, dst Buf, red func(p *Proc, dst, src Buf)) {}

// drain stands in for a helper that takes ownership of requests.
func drain(p *Proc, rs []*Request) {
	for _, r := range rs {
		p.Wait(r)
	}
}
