package main

// deadFunc is called by nothing.
func deadFunc() int { return 1 }

type counter struct{ n int }

// bump is a method nothing calls and no interface names.
func (c *counter) bump() { c.n++ }

// onlyTested is called from fire_test.go alone, and tests are not roots.
func onlyTested() int { return 2 }
