package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// How long recovery takes depends on where in the compaction cycle the
// crash lands: the records logged since the last cut, and the length of
// the delta chain the cut extended. One crash at the end of the timed
// stretch would measure where the run happened to stop. So every run
// recovers from the same kind of crash points. A first crash right
// after the run, at whatever point it stopped, is recovered untimed and
// checks what the run acknowledged. Then each stream feeding an
// updating handle applies updates until that handle cuts a fresh
// chain base and then chainDeltas more delta cuts (a chain of
// chainDeltas+1 links, the middle of MaxDeltaChain's default 8), and
// the crashes then land at crashCycles points spread evenly over the
// next compaction interval, dealt out over the run's sub-run instances.
// Each crash image is recovered recoverReps times; recover_s is the
// median over the points of each point's median.
//
// Between crashes the cycles run on the recovered instance, and a
// recovered handle starts a fresh compaction interval, so the cycles
// add fewer than one interval of updates in all and never cut. That
// matters: a cut after a recovery allocates new chain regions from the
// pool (the free list of released regions is volatile), so
// crash-recover-continue cycles that cut exhaust ycsb-d-64k's 64 MiB
// pool after about 17 cycles. Positioning does cut after the one
// recovery of the first crash; until the new free list refills, those
// cuts take fresh regions, about one delta chain's worth.
const (
	crashCycles = 16
	chainDeltas = 3
	recoverReps = 3
)

// cutEvery is the compaction interval both workload families use.
var cutEvery = workload.ThroughputCompactEvery(libProcs)

// nextUpdates returns the next n updates of the cyclic stream ops from
// position pos, in order.
func nextUpdates(ops []op, pos, n int) []op {
	out := make([]op, 0, n)
	for i := pos; len(out) < n; i++ {
		if i == len(ops) {
			i = 0
		}
		if ops[i].update {
			out = append(out, ops[i])
		}
	}
	return out
}

// put records that stream i's latest put to k wrote v.
func (m *mapModel) put(i int, k, v uint64) {
	if j, ok := slices.BinarySearch(m.keys, k); !ok {
		m.keys = slices.Insert(m.keys, j, k)
	}
	m.last[i][k] = v
}

// cycler drives the crash/recovery cycles of one run.
type cycler struct {
	c     *checker
	label string
	pool  *pmem.Pool
	cfg   core.Config
	model *mapModel
	// gaps[i] holds the updates stream i still has to apply on its
	// updating handle, in order.
	gaps [][]op
	// readPid is a handle the cycles may read through.
	readPid int
	// step is the granularity at which positioning applies updates: 1
	// through Handle.Update, one batch through the server's batcher
	// handle, so positioning stops right at a cut.
	step int
	// apply runs ops, stream i's next updates, on its updating handle
	// of in, making them durable, and tallies them (and any failure) in
	// the checker.
	apply func(in *core.Instance, i int, ops []op)
	// acked is called before each crash and returns the gate to run on
	// the recovery report: every update acknowledged so far survives.
	acked func(in *core.Instance) func(rep *core.Report)
	// heaps collects, in MiB, the heap each fresh recovery of a crash
	// point's image held (see crash).
	heaps []float64
}

// applyN applies stream i's next n updates and records them in the model.
func (y *cycler) applyN(in *core.Instance, i, n int) {
	ops := y.gaps[i][:min(n, len(y.gaps[i]))]
	y.gaps[i] = y.gaps[i][len(ops):]
	y.apply(in, i, ops)
	for _, o := range ops {
		y.model.put(i, o.args[0], o.args[1])
	}
}

// position applies stream i's updates until its handle has cut a fresh
// chain base and then chainDeltas more intervals, ending right at a cut.
func (y *cycler) position(in *core.Instance, i int) {
	bases := in.CompactionStats().Bases
	for in.CompactionStats().Bases == bases && len(y.gaps[i]) > 0 {
		y.applyN(in, i, y.step)
	}
	y.applyN(in, i, chainDeltas*cutEvery)
}

// gapUpdates is how many updates each stream needs for positioning and
// the crash points: up to one full chain (MaxDeltaChain 8) of intervals
// before a fresh base, chainDeltas intervals after it, and less than one
// interval up to the last point.
func gapUpdates() int { return (8 + chainDeltas + 1) * cutEvery }

// crashPoints returns the crash points sub-run j of n takes: every
// n-th of the crashCycles points, so each sub-run's instance covers the
// whole interval and the points are spread over the instances.
func crashPoints(j, n int) []int {
	var ks []int
	for k := j; k < crashCycles; k += n {
		ks = append(ks, k)
	}
	return ks
}

// pointUpdates is how many updates past the cut crash point k lies.
func pointUpdates(k int) int { return k * cutEvery / crashCycles }

// run crashes the instance of a timed run once, right after the run
// and before any update of the cycles' own, and recovers it untimed.
// It then positions the recovered instance and crashes it at each of
// the given points in increasing order, and checks the final map
// against the model. It returns the report of the first recovery and
// each point's recovery time.
func (y *cycler) run(in *core.Instance, points []int) (first *core.Report, secs []float64) {
	y.pool.SetGate(nil) // recovery and the cycles run untraced
	in, first, _ = y.crash(in, 1)
	if in == nil {
		return first, nil
	}
	for i := range y.gaps {
		y.position(in, i)
	}
	at := 0
	for _, k := range points {
		for i := range y.gaps {
			y.applyN(in, i, pointUpdates(k)-at)
		}
		at = pointUpdates(k)
		var sec float64
		in, _, sec = y.crash(in, recoverReps)
		secs = append(secs, sec)
		if in == nil {
			return first, secs
		}
	}
	vals, size := y.model.readMap(in.Handle(y.readPid).Read)
	y.model.check(y.c, y.label+" map after the crash cycles", vals, size)
	return first, secs
}

// crash reads the map through in, drops in, crashes the pool dropping
// every unflushed line and recovers the image reps times, timing each
// core.Recover. It gates that the recovered map is the pre-crash one
// and that every update acknowledged so far survives, and returns the
// recovered instance (nil if recovery failed), its report and the
// median recovery time.
//
// Before each recovery but the first, the instance the previous one
// built is dropped, and the heap that frees (the live heap before less
// the live heap after) goes to heaps: what an instance recovered from
// this image holds before it serves a call. The pool (the simulated
// NVM and its cache), the report and everything the benchmark holds
// are live at both readings, so they cancel. A fresh recovery holds no
// node pools left over from the timing of a run, so the figure depends
// on the image alone.
func (y *cycler) crash(in *core.Instance, reps int) (*core.Instance, *core.Report, float64) {
	pre, preSize := y.model.readMap(in.Handle(y.readPid).Read)
	check := y.acked(in)
	in = nil
	var (
		rin *core.Instance
		rep *core.Report
		err error
		per []float64
	)
	for j := 0; j < reps && err == nil; j++ {
		if rin != nil {
			held := heapLiveMB()
			runtime.KeepAlive(rin) // through the first reading
			rin = nil
			y.heaps = append(y.heaps, held-heapLiveMB())
		}
		y.pool.Crash(pmem.DropAll) // also drops what the last recovery left volatile
		runtime.GC()
		t0 := time.Now()
		rin, rep, err = core.Recover(y.pool, objects.OrderedMapSpec{}, y.cfg)
		per = append(per, time.Since(t0).Seconds())
	}
	y.c.gate(err == nil, "%s: recover: %v", y.label, err)
	if err != nil {
		return nil, nil, median(per)
	}
	post, postSize := y.model.readMap(rin.Handle(y.readPid).Read)
	sameMap(y.c, y.label+" recovered map vs pre-crash", pre, preSize, post, postSize)
	check(rep)
	return rin, rep, median(per)
}
