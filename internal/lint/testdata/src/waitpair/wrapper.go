package waitpair

// Wrapper request handles: any named type ending in Request is a
// request shape, and a Wait method called on the handle itself
// completes it — the pattern of a nonblocking collective that returns
// a handle owning the underlying requests.

// GroupRequest owns a batch of in-flight receives.
type GroupRequest struct {
	p    *Proc
	rs   []*Request
	done bool
}

// postGroup posts one receive per peer and hands ownership to the
// returned handle; the summary marks the result request-typed.
func postGroup(p *Proc, peers []int) *GroupRequest {
	g := &GroupRequest{p: p}
	for _, peer := range peers {
		g.rs = append(g.rs, p.Irecv(peer, 9))
	}
	return g
}

// Wait completes every receive the handle owns.
func (g *GroupRequest) Wait() {
	if g.done {
		return
	}
	g.done = true
	for _, r := range g.rs {
		g.p.Wait(r)
	}
}

// WrapperDiscarded drops the handle on the floor; nobody can ever
// complete the receives it owns.
func WrapperDiscarded(p *Proc, peers []int) {
	postGroup(p, peers) // finding: wrapper handle discarded
}

// WrapperNeverWaited binds the handle but only reads a field.
func WrapperNeverWaited(p *Proc, peers []int) {
	g := postGroup(p, peers) // finding: handle never reaches a Wait
	_ = g.done
}

// WrapperWaited completes through the handle's own Wait method.
func WrapperWaited(p *Proc, peers []int) {
	g := postGroup(p, peers)
	g.Wait()
}
