package waitpair

// PairedRing is the canonical post/post/wait/wait ring step.
func PairedRing(p *Proc, data Buf) Buf {
	rreq := p.Irecv(0, 7)
	sreq := p.Isend(1, 7, data)
	got := p.Wait(rreq)
	p.Wait(sreq)
	return got
}

// CarriedToWaitall collects requests and drains them with a variadic
// Waitall — consumption through the carrier slice.
func CarriedToWaitall(p *Proc, data Buf) {
	var reqs []*Request
	for i := 0; i < 4; i++ {
		r := p.Isend(i, 0, data)
		reqs = append(reqs, r)
	}
	p.Waitall(reqs...)
}

// GuardedWait is the conditional-post idiom: the wait is guarded on the
// request itself, so no path leaks it.
func GuardedWait(p *Proc, data Buf, send bool) {
	var sreq *Request
	if send {
		sreq = p.Isend(1, 0, data)
	}
	if sreq != nil {
		p.Wait(sreq)
	}
}

// HandedOff escapes into a helper, which owns the requests from then on.
func HandedOff(p *Proc, data Buf) {
	reqs := []*Request{p.Isend(1, 0, data), p.Irecv(1, 0)}
	drain(p, reqs)
}

// WaitInline nests the post inside the wait.
func WaitInline(p *Proc) Buf {
	return p.Wait(p.Irecv(2, 1))
}

// CompletedInto completes the receive straight into the caller's buffer.
func CompletedInto(p *Proc, data, dst Buf) {
	rreq := p.Irecv(0, 8)
	sreq := p.Isend(1, 8, data)
	p.WaitInto(rreq, dst, nil)
	p.Wait(sreq)
}
