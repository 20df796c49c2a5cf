package waitpair

// DiscardSend fires and forgets: the transfer's completion is never
// observed.
func DiscardSend(p *Proc, data Buf) {
	p.Isend(1, 0, data) // finding: result discarded
}

// BlankRecv explicitly throws the request away.
func BlankRecv(p *Proc) {
	_ = p.Irecv(0, 0) // finding: assigned to _
}

// NeverWaited binds the request but no path waits on it.
func NeverWaited(p *Proc, data Buf) {
	req := p.Isend(2, 0, data) // finding: never waited
	if req != nil {
		_ = req // inspection only; not a wait
	}
}

// OneBranchWait waits only when fast is set: the slow path leaks the
// send request.
func OneBranchWait(p *Proc, data Buf, fast bool) {
	req := p.Isend(3, 0, data) // finding: waited only inside a conditional
	if fast {
		p.Wait(req)
	}
}

// CarriedButDropped appends requests into a slice that is never
// consumed.
func CarriedButDropped(p *Proc, data Buf) {
	var reqs []*Request
	for i := 0; i < 4; i++ {
		r := p.Isend(i, 0, data) // finding: carrier slice never waited
		reqs = append(reqs, r)
	}
	_ = len(reqs)
}

// IntoOnlyWhenWanted completes the receive into dst only when want is set:
// WaitInto counts as the wait it is, and the other path leaks the request.
func IntoOnlyWhenWanted(p *Proc, dst Buf, want bool) {
	req := p.Irecv(4, 0) // finding: waited only inside a conditional
	if want {
		p.WaitInto(req, dst, nil)
	}
}
