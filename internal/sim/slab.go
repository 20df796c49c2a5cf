package sim

// A slab hands out an engine's objects of one kind from chunks that double
// from 4 up to 256, so that a world of a few dozen costs a few allocations
// rather than one each. An object keeps its chunk alive, which costs
// nothing: everything an engine hands out lives as long as the engine.
type slab[T any] struct {
	chunk []T // what is left of the current chunk
	size  int // the current chunk's length
}

// new returns a pointer to a copy of v.
func (s *slab[T]) new(v T) *T {
	if len(s.chunk) == 0 {
		s.size = min(max(2*s.size, 4), 256)
		s.chunk = make([]T, s.size)
	}
	t := &s.chunk[0]
	s.chunk = s.chunk[1:]
	*t = v
	return t
}
