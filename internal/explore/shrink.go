package explore

import "mha/internal/verify"

// shrinkSpec greedily minimizes a failing explored schedule with
// verify.ShrinkBy, under verify.Shrink's contract: vs must be the
// violations s already exhibited, the returned violations belong to the
// returned spec, and at most budget candidate replays are spent.
// Candidates that fail to replay (their choices no longer fit the
// frontiers of the reduced world) are charged against the budget and
// discarded.
func shrinkSpec(s Spec, vs []verify.Violation, budget int) (Spec, []verify.Violation, int) {
	return verify.ShrinkBy(s, vs, budget, shrinkCandidates, Spec.String, Spec.Validate,
		func(cand Spec) []verify.Violation {
			cvs, err := Replay(cand)
			if err != nil {
				return nil
			}
			return cvs
		})
}

// shrinkCandidates proposes one-step reductions, most aggressive first:
// drop the whole schedule (is the bug schedule-independent?), drop the
// fault, halve and trim the choice list, zero trailing choices back to
// canonical, and shrink the payload.
func shrinkCandidates(s Spec) []Spec {
	var out []Spec
	with := func(mut func(*Spec)) {
		c := s
		c.Choices = append([]int(nil), s.Choices...)
		mut(&c)
		out = append(out, c)
	}
	if len(s.Choices) > 0 {
		with(func(c *Spec) { c.Choices = nil })
	}
	if !s.Fault.Healthy() {
		with(func(c *Spec) { c.Fault = NoFault })
	}
	if s.Fabric != "" {
		with(func(c *Spec) { c.Fabric = "" })
	}
	if n := len(s.Choices); n > 1 {
		with(func(c *Spec) { c.Choices = c.Choices[:n/2] })
		with(func(c *Spec) { c.Choices = c.Choices[:n-1] })
	}
	// Zero the last nonzero choice: canonical prefixes shrink the repro
	// line even when the list length cannot drop.
	for i := len(s.Choices) - 1; i >= 0; i-- {
		if s.Choices[i] != 0 {
			i := i
			with(func(c *Spec) { c.Choices[i] = 0 })
			break
		}
	}
	// A trailing run of zeros is equivalent to a shorter list.
	if n := len(s.Choices); n > 0 && s.Choices[n-1] == 0 {
		k := n
		for k > 0 && s.Choices[k-1] == 0 {
			k--
		}
		with(func(c *Spec) { c.Choices = c.Choices[:k] })
	}
	for _, m := range []int{0, 1, s.Msg / 2, s.Msg - 1} {
		if m >= 0 && m < s.Msg {
			m := m
			with(func(c *Spec) { c.Msg = m })
		}
	}
	return out
}
