package objects

import "repro/internal/spec"

// spec.Copier implementations for every shipped state: CopyFrom
// replaces the receiver with a deep copy of src while reusing the
// receiver's storage (slices, dense tables) when the shapes match, so
// overwriting the same destination state over and over is
// allocation-free in steady state — Clone (which always allocates)
// stays the right tool for one-shot copies.
//
// Each CopyFrom panics via the type assertion if src is a state of a
// different spec.

// reuse copies src into dst, reusing dst's backing array when it is
// large enough.
func reuse(dst, src []uint64) []uint64 {
	if cap(dst) < len(src) {
		return append(dst[:0:0], src...)
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func (s *counterState) CopyFrom(src spec.State) { s.v = src.(*counterState).v }

func (s *registerState) CopyFrom(src spec.State) { s.v = src.(*registerState).v }

func (s *stackState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*stackState).xs) }

func (s *queueState) CopyFrom(src spec.State) {
	o := src.(*queueState)
	s.xs = reuse(s.xs, o.xs)
	s.head = o.head
}

func (s *dequeState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*dequeState).xs) }

func (s *setState) CopyFrom(src spec.State) { s.t.copyFrom(src.(*setState).t) }

func (s *mapState) CopyFrom(src spec.State) { s.t.copyFrom(src.(*mapState).t) }

func (s *pqState) CopyFrom(src spec.State) { s.h = reuse(s.h, src.(*pqState).h) }

func (s *logState) CopyFrom(src spec.State) { s.xs = reuse(s.xs, src.(*logState).xs) }

func (s *bankState) CopyFrom(src spec.State) {
	o := src.(*bankState)
	clear(s.m)
	for k, v := range o.m {
		s.m[k] = v
	}
}

func (s *omapState) CopyFrom(src spec.State) {
	o := src.(*omapState)
	s.keys = reuse(s.keys, o.keys)
	s.vals = reuse(s.vals, o.vals)
}
