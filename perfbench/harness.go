package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/spec"
	"repro/internal/workload"
)

// op is one generated call in the compact form the drivers replay:
// no per-step slice, so a cycled stream is one flat array.
type op struct {
	code   uint64
	args   [2]uint64
	n      uint8
	update bool
}

func compactSteps(steps []workload.Step) []op {
	out := make([]op, len(steps))
	for i, st := range steps {
		out[i] = op{code: st.Code, n: uint8(copy(out[i].args[:], st.Args)), update: st.IsUpdate}
	}
	return out
}

// deriveSeed gives stream i of a run its own seed: a splitmix64 step,
// so neighbouring run seeds do not share streams.
func deriveSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// phase coordinates one timed stretch of closed-loop drivers. The
// stretch is cut into equal slices; drivers file each timed call under
// the slice current when it started, and the coordinator reads the
// drivers' completion counters at every slice boundary.
type phase struct {
	slice atomic.Int32 // -1 while warming, then 0..slices-1, then slices
	stop  atomic.Bool
}

func newPhase() *phase {
	ph := &phase{}
	ph.slice.Store(-1)
	return ph
}

// timedSlice returns the slice a timed call started now belongs to, or
// -1 outside the timed stretch.
func (ph *phase) timedSlice(slices int) int {
	s := int(ph.slice.Load())
	if s >= slices {
		return -1
	}
	return s
}

// measure sleeps through warm, then through n slices of length each,
// and returns each slice's completions per second (count sums the
// drivers' counters) and the stretch's bounds in UnixNano. It sets stop
// when done; the caller then waits for its drivers.
func (ph *phase) measure(warm, each time.Duration, n int, count func() uint64) (rates []float64, from, to int64) {
	time.Sleep(warm)
	prevT, prevC := time.Now(), count()
	from = prevT.UnixNano()
	ph.slice.Store(0)
	for i := 0; i < n; i++ {
		time.Sleep(each)
		t, c := time.Now(), count()
		ph.slice.Store(int32(i + 1))
		rates = append(rates, float64(c-prevC)/t.Sub(prevT).Seconds())
		prevT, prevC = t, c
	}
	ph.stop.Store(true)
	return rates, from, prevT.UnixNano()
}

// checker tallies the correctness gates of a run. Every gate counts as
// one attempted operation, and a failed gate as one failed operation,
// so a broken gate shows in failed/attempted as well as in correct.
type checker struct {
	attempted, failed uint64
	problems          []string
}

func (c *checker) gate(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// ops tallies a driven stretch's operations; any failed one fails the
// run.
func (c *checker) ops(label string, attempted, failed uint64) {
	c.attempted += attempted
	c.failed += failed
	if failed > 0 {
		c.problems = append(c.problems, fmt.Sprintf("%s: %d of %d operations failed", label, failed, attempted))
	}
}

// fail records a failed operation whose attempt is already counted.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// mapModel knows, from the inputs alone, which value every key of the
// ordered map may hold after each stream has issued a given number of
// calls: the value of the last put any stream made to it (streams run
// concurrently, so any one of those last puts may win), or the preload
// value if no stream put it.
type mapModel struct {
	keys []uint64 // every key the run can have created, sorted
	last []map[uint64]uint64
	npre uint64
}

// newMapModel builds the model for a map preloaded with keys 1..npre
// (value k*7, as workload.YCSB.Preload writes them) and streams that
// issued calls[i] calls of the cyclic streams[i].
func newMapModel(npre uint64, streams [][]op, calls []uint64) *mapModel {
	m := &mapModel{npre: npre}
	seen := map[uint64]bool{}
	for k := uint64(1); k <= npre; k++ {
		seen[k] = true
	}
	for i, ops := range streams {
		for _, o := range ops[:min(calls[i], uint64(len(ops)))] {
			if o.update && o.code == objects.OMapPut {
				seen[o.args[0]] = true
			}
		}
		m.last = append(m.last, lastPuts(ops, calls[i]))
	}
	for k := range seen {
		m.keys = append(m.keys, k)
	}
	slices.Sort(m.keys)
	return m
}

// lastPuts maps each key to the value of the last put among the first
// n calls of the cyclic stream ops.
func lastPuts(ops []op, n uint64) map[uint64]uint64 {
	m := map[uint64]uint64{}
	visit := func(i int) {
		if o := &ops[i]; o.update && o.code == objects.OMapPut {
			if _, ok := m[o.args[0]]; !ok {
				m[o.args[0]] = o.args[1]
			}
		}
	}
	l := uint64(len(ops))
	end := int(n % l)
	for i := end - 1; i >= 0; i-- {
		visit(i)
	}
	if n >= l {
		for i := int(l) - 1; i >= end; i-- {
			visit(i)
		}
	}
	return m
}

// readMap reads every model key and the map's size through read.
func (m *mapModel) readMap(read func(code uint64, args ...uint64) uint64) (vals []uint64, size uint64) {
	vals = make([]uint64, len(m.keys))
	for i, k := range m.keys {
		vals[i] = read(objects.OMapGet, k)
	}
	return vals, read(objects.OMapLen)
}

// check gates vals (as readMap returned them) against the model.
func (m *mapModel) check(c *checker, label string, vals []uint64, size uint64) {
	c.gate(size == uint64(len(m.keys)), "%s: map holds %d keys, inputs created %d", label, size, len(m.keys))
	bad, first := 0, ""
	for i, k := range m.keys {
		ok, wrote := false, false
		for _, last := range m.last {
			if v, w := last[k]; w {
				wrote = true
				ok = ok || v == vals[i]
			}
		}
		if !wrote {
			ok = k <= m.npre && vals[i] == k*7
		}
		if !ok {
			if bad == 0 {
				first = fmt.Sprintf("key %d = %d", k, vals[i])
			}
			bad++
		}
	}
	c.gate(bad == 0, "%s: %d keys hold a value no last put wrote (first: %s)", label, bad, first)
}

// sameMap gates that two readMap results are equal key by key.
func sameMap(c *checker, label string, a []uint64, asize uint64, b []uint64, bsize uint64) {
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	c.gate(diff == 0 && asize == bsize, "%s: %d keys differ, size %d vs %d", label, diff, asize, bsize)
}

// checkAcked gates that recovery reports every update id a handle got
// back, the ids of one pid being its sequence numbers 1..last: above
// the recovered snapshot's coverage each must be in the trace, at or
// below it WasLinearized answers from the coverage.
func checkAcked(c *checker, label string, rep *core.Report, last uint64) {
	pid, lastSeq := spec.SplitID(last)
	missing := 0
	for seq := lastSeq; seq > 0 && seq > rep.CoveredSeq[pid]; seq-- {
		if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
			missing++
		}
	}
	c.gate(missing == 0, "%s: recovery lost %d acked updates of p%d (last seq %d)", label, missing, pid, lastSeq)
}

// counters is the stats surfaces' view of an instance at a moment its
// drivers are stopped (plog's sequence counters are plain fields).
type counters struct {
	pm      pmem.Stats
	cmp     core.CompactionStats
	fp      core.FastPathStats
	pr      core.PressureStats
	records uint64 // plog records appended, all logs
	gate    gateCounts
	// updates and reads count calls: the drivers' own tallies in the
	// library workloads, Server.Stats in the service workload, which
	// also fills flushes and batched.
	updates, reads, flushes, batched uint64
}

func snapCounters(pool *pmem.Pool, in *core.Instance, g *tracer) counters {
	c := counters{pm: pool.TotalStats(), cmp: in.CompactionStats(), fp: in.FastPathStats(), pr: in.Pressure()}
	for pid := 0; pid < in.NProcs(); pid++ {
		c.records += in.Log(pid).NextSeq() - 1
	}
	if g != nil {
		c.gate = g.snapshot()
	}
	return c
}

func (c counters) cuts() uint64 { return c.cmp.Bases + c.cmp.Deltas }

// ledger gates the pfence ledger between two snapshots: one pfence per
// fenced call (an update, or a batcher flush), two per compaction cut
// (the chain record and the truncate), none per read.
func ledger(c *checker, label string, d0, d1 counters, fenced uint64) {
	cuts := d1.cuts() - d0.cuts()
	pf := d1.pm.PersistentFences - d0.pm.PersistentFences
	c.gate(pf == fenced+2*cuts, "%s: pfence ledger: %d pfences for %d fenced calls and %d cuts (want %d)",
		label, pf, fenced, cuts, fenced+2*cuts)
}

// stackMetrics are the per-layer metrics both workload families take
// the same way, from two snapshots around a traced stretch. It gates
// that no read issued a persistent fence.
func stackMetrics(c *checker, label string, d0, d1 counters) []metric {
	gc := d1.gate.sub(d0.gate)
	upd := float64(d1.updates - d0.updates)
	reads := float64(d1.reads - d0.reads)
	ops := upd + reads
	c.gate(gc.n[kindRead][cPfence] == 0, "%s: %d pfences on the read path", label, gc.n[kindRead][cPfence])
	perUpd := func(num uint64) float64 { return ratio(float64(num), upd) }
	perOp := func(num uint64) float64 { return ratio(float64(num), ops) }
	perRead := func(num uint64) float64 { return ratio(float64(num), reads) }
	nu, no, nr := int(upd), int(ops), int(reads)
	cuts := d1.cuts() - d0.cuts()
	return []metric{
		{"pmem.lines_per_update", perUpd(d1.pm.LinesPersisted - d0.pm.LinesPersisted), "1/update", nu},
		{"pmem.flushes_per_update", perUpd(d1.pm.Flushes - d0.pm.Flushes), "1/update", nu},
		{"pmem.loads_per_op", perOp(d1.pm.Loads - d0.pm.Loads), "1/op", no},
		{"pmem.stores_per_op", perOp(d1.pm.Stores - d0.pm.Stores), "1/op", no},
		{"pmem.cas_per_op", perOp(d1.pm.CASes - d0.pm.CASes), "1/op", no},
		{"pmem.pfences_per_read", perRead(gc.n[kindRead][cPfence]), "1/read", nr},
		{"trace.cas_tail_per_update", perUpd(gc.n[kindUpdate][cCasTail]), "1/update", nu},
		{"trace.scan_per_update", perUpd(gc.n[kindUpdate][cScan]), "1/update", nu},
		{"trace.scan_per_read", perRead(gc.n[kindRead][cScan]), "1/read", nr},
		{"plog.records_per_update", perUpd(d1.records - d0.records), "1/update", nu},
		{"plog.spills_per_kupdate", 1e3 * perUpd(uint64(d1.pr.Spills-d0.pr.Spills)), "1/kupdate", nu},
		{"core.read_epoch_hit_frac", perRead(gc.epochHits), "ratio", nr},
		{"core.read_slot_serve_frac", perRead(d1.fp.SlotReads - d0.fp.SlotReads), "ratio", nr},
		{"core.adoptions_per_kread", 1e3 * perRead(d1.fp.Adoptions-d0.fp.Adoptions), "1/kread", nr},
		{"core.stamps_per_kread", 1e3 * perRead(d1.fp.Stamps-d0.fp.Stamps), "1/kread", nr},
		{"core.publishes_per_kop", 1e3 * perOp(d1.fp.Publishes-d0.fp.Publishes), "1/kop", no},
		{"core.cuts_per_kupdate", 1e3 * perUpd(cuts), "1/kupdate", nu},
		{"core.delta_words_ratio", ratio(float64(d1.cmp.SnapshotWords-d0.cmp.SnapshotWords), float64(d1.cmp.FullEquivWords-d0.cmp.FullEquivWords)), "ratio", int(cuts)},
		{"core.valve_fires", float64(d1.pr.ValveFires - d0.pr.ValveFires), "count", nu},
		{"core.ring_grows", float64(d1.pr.RingGrows - d0.pr.RingGrows), "count", nu},
	}
}

// subRuns is how many fresh instances share an untraced run's timed
// stretch. The same code runs measurably faster or slower on one
// instance than on the next (memory placement, where the host runs the
// two vCPUs): one 20-second instance left the run-to-run spread of
// ycsb-a-1k's ops_per_s at about 12%. The rates and latency quantiles
// of every instance's slices are pooled before the median is taken.
const subRuns = 4

// split divides a run's seconds over its sub-runs: n instances timed
// for per one-second slices each.
func split(seconds int) (n, per int) {
	n = min(subRuns, seconds)
	return n, seconds / n
}

var latencyMetrics = []struct {
	name string
	kind int // 0 update, 1 read
	q    float64
}{{"update_p50_us", 0, 0.5}, {"update_p99_us", 0, 0.99}, {"read_p50_us", 1, 0.5}, {"read_p99_us", 1, 0.99}}

// timing pools the end-to-end measurements of a run's sub-runs.
type timing struct {
	rates   []float64
	quant   [4][]float64 // per slice, in latencyMetrics order
	nLat    [4]int
	calls   uint64
	updates uint64
	pfences uint64
	lines   uint64
}

// add files one sub-run: its slice rates, its timed calls per slice
// for each kind, its stats before and after, and its completed calls.
func (t *timing) add(rates []float64, perSlice func(kind int) [][]uint32, d0, d1 counters, calls uint64) {
	t.rates = append(t.rates, rates...)
	for i, l := range latencyMetrics {
		us, n := sliceQuantiles(perSlice(l.kind), l.q)
		t.quant[i] = append(t.quant[i], us...)
		t.nLat[i] += n
	}
	t.calls += calls
	t.updates += d1.updates - d0.updates
	t.pfences += d1.pm.PersistentFences - d0.pm.PersistentFences
	t.lines += d1.pm.LinesPersisted - d0.pm.LinesPersisted
}

func (t *timing) metrics() []metric {
	ms := []metric{{"ops_per_s", median(t.rates), "1/s", int(t.calls)}}
	for i, l := range latencyMetrics {
		ms = append(ms, metric{l.name, median(t.quant[i]), "us", t.nLat[i]})
	}
	u := float64(t.updates)
	return append(ms,
		metric{"pfences_per_update", float64(t.pfences) / u, "1/update", int(u)},
		metric{"nvm_bytes_per_update", float64(t.lines) * pmem.LineSize / u, "B/update", int(u)},
	)
}
