package core

// The read fast path (Config.ReadFastPath, DESIGN.md §3.5) is the
// publication-epoch check in Read: the trace bumps an epoch on every
// linearize stage, and a read whose handle has already validated its
// view against the current epoch serves from the view without touching
// the trace. A handle whose view is stale walks the suffix from its own
// view, as with plain local views, and records the epoch it loaded
// before the walk.

// epochNever marks a handle whose view has not been validated against
// any trace epoch (fresh or freshly recovered); the first read always
// takes the walk. Publication epochs count up from zero and cannot
// reach it.
const epochNever = ^uint64(0)

// FastPathStats is the retired shared-view slot surface of the read
// fast path. The slots (publication, epoch stamps, slot-served reads
// and view adoption) were removed when the epoch check alone proved to
// carry the fast path's speed, so every counter is always zero. The
// type and its fields stay for callers that still report them.
type FastPathStats struct {
	Publishes uint64
	Stamps    uint64
	SlotReads uint64
	Adoptions uint64
}

// FastPathStats reports the retired slot counters: always zero.
func (in *Instance) FastPathStats() FastPathStats { return FastPathStats{} }
