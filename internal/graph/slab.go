package graph

// slabInstances is how many instances one slab chunk holds.
const slabInstances = 256

// Slab hands out node slices carved from shared chunks, so that building
// an instance costs one allocation per slabInstances instances instead of
// one each. Every slice is capped at its length, so appending to it
// reallocates rather than writing into its neighbour, and a chunk is never
// reused: the caller may keep every slice it is given. The zero value is
// ready to use. A Slab is not safe for concurrent use.
type Slab struct {
	free []Node // the current chunk's untaken tail
}

// Take returns a zeroed slice of n nodes that the caller owns.
//
//lint:hotpath
func (s *Slab) Take(n int) []Node {
	if len(s.free) < n {
		s.grow(n)
	}
	phi := s.free[:n:n]
	s.free = s.free[n:]
	return phi
}

// Copy returns a copy of phi that the caller owns.
//
//lint:hotpath
func (s *Slab) Copy(phi []Node) []Node {
	dst := s.Take(len(phi))
	copy(dst, phi)
	return dst
}

// grow starts a chunk of slabInstances slices of n nodes. A slice wider
// than any sample (only a corrupt decoded frame asks for one) gets a chunk
// of its own, so a hostile width costs no more than itself. grow is kept
// out of line so that its allocation, once per chunk, stays off the
// callers' hot paths.
//
//go:noinline
func (s *Slab) grow(n int) {
	if n > MaxKeyVars {
		s.free = make([]Node, n)
		return
	}
	s.free = make([]Node, slabInstances*n)
}
