package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
)

const (
	// libProcs is the handle count of the library workloads: one
	// driving goroutine per handle, one goroutine per vCPU of the
	// recording box.
	libProcs = 2
	// streamLen is the length of each generated per-handle stream. The
	// first pass is the warm-up; the timed phase cycles the stream, so
	// mix D's fresh-key puts become rewrites of the keys the stream
	// inserted one pass earlier and the state stops growing.
	streamLen = 1 << 19
	// sampleEvery: every sampleEvery-th call of a driver is timed.
	// Timing every call cost about a fifth of ycsb-a-1k's throughput.
	sampleEvery = 8
	// Set-up is repeated, at least minReps times and until minRepTime
	// has passed (at most maxReps), and reported as a median: a single
	// set-up of the small workloads takes a few milliseconds, too short
	// to time once.
	minReps    = 5
	maxReps    = 25
	minRepTime = 500 * time.Millisecond
	// spanCap bounds the spans a traced driver keeps in memory.
	spanCap = 1 << 16
)

// libWorkload is a closed-loop workload driving core handles directly.
type libWorkload struct {
	name string
	mix  workload.YCSBWorkload
	keys uint64
}

func (w libWorkload) ycsb() *workload.YCSB {
	return &workload.YCSB{Mix: w.mix, KeySpace: w.keys, Theta: 1.01}
}

func libConfig(g *tracer) core.Config {
	return core.Config{
		NProcs:         libProcs,
		ReadFastPath:   true,
		DeltaSnapshots: true,
		CompactEvery:   workload.ThroughputCompactEvery(libProcs),
		LogCapacity:    workload.ThroughputLogCapacity(libProcs),
		Gate:           gateOf(g),
	}
}

func (w libWorkload) params() map[string]any {
	cfg := libConfig(nil)
	return map[string]any{
		"object": "orderedmap", "mix": string(w.mix), "keys": w.keys, "theta": 1.01,
		"loop": "closed", "handles": libProcs, "stream_per_handle": streamLen,
		"timed_sample": fmt.Sprintf("1/%d", sampleEvery),
		"config": map[string]any{
			"NProcs": cfg.NProcs, "ReadFastPath": cfg.ReadFastPath, "DeltaSnapshots": cfg.DeltaSnapshots,
			"CompactEvery": cfg.CompactEvery, "LogCapacity": cfg.LogCapacity,
		},
		"pool_bytes": workload.ThroughputPoolBytes(libProcs),
	}
}

// streams generates each handle's input from the run seed.
func (w libWorkload) streams(seed int64) [][]op {
	y := w.ycsb()
	out := make([][]op, libProcs)
	for pid := range out {
		out[pid] = compactSteps(y.Stream(deriveSeed(seed, pid), streamLen))
	}
	return out
}

// setup allocates the pool, opens the instance and preloads the keys.
func (w libWorkload) setup(g *tracer) (*pmem.Pool, *core.Instance, error) {
	pool := pmem.New(workload.ThroughputPoolBytes(libProcs), gateOf(g))
	in, err := core.New(pool, objects.OrderedMapSpec{}, libConfig(g))
	if err != nil {
		return nil, nil, err
	}
	if err := w.ycsb().Preload(in.Handle(0)); err != nil {
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	return pool, in, nil
}

// libDriver is one driving goroutine's state: it owns one handle.
type libDriver struct {
	h   *core.Handle
	pid int
	ops []op
	pos int

	calls, updates, reads, failed uint64
	firstErr                      error
	done                          atomic.Uint64 // calls, published every sampleEvery calls

	lat [2][][]uint32 // [update, read][slice]: timed calls in ns

	// Traced run only.
	g                           *tracer
	spans                       *spanLog
	nStaged                     int
	orderNs, persistNs, applyNs float64
	stagedNs                    float64 // sum of the staged updates' whole durations
	cutUs                       []float64
}

func newLibDriver(h *core.Handle, ops []op, slices int, g *tracer) *libDriver {
	d := &libDriver{h: h, pid: h.PID(), ops: ops, g: g}
	for k := range d.lat {
		d.lat[k] = make([][]uint32, slices)
	}
	if g != nil {
		d.spans = newSpanLog(spanCap, uint64(d.pid)<<48)
	}
	return d
}

// step issues the stream's next call; slice >= 0 times it.
func (d *libDriver) step(slice int) {
	o := &d.ops[d.pos]
	if d.pos++; d.pos == len(d.ops) {
		d.pos = 0
	}
	d.calls++
	kind := kindRead
	if o.update {
		kind = kindUpdate
	}
	timed := slice >= 0
	if d.g != nil {
		d.g.begin(d.pid, kind, timed)
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	if o.update {
		if _, _, err := d.h.Update(o.code, o.args[:o.n]...); err != nil {
			d.failed++
			if d.firstErr == nil {
				d.firstErr = err
			}
		}
		d.updates++
	} else {
		d.h.Read(o.code, o.args[:o.n]...)
		d.reads++
	}
	if !timed {
		return
	}
	t1 := time.Now()
	ns := t1.Sub(t0).Nanoseconds()
	d.lat[kind-kindUpdate][slice] = append(d.lat[kind-kindUpdate][slice], uint32(min(ns, math.MaxUint32)))
	if d.g != nil {
		d.traceCall(o.update, t0.UnixNano(), t1.UnixNano())
	}
}

// traceCall files a timed call's spans: the call, and for an update its
// three pipeline stages as the gate timestamped them.
func (d *libDriver) traceCall(update bool, t0, t1 int64) {
	if !update {
		d.spans.call("core.Read", t0, t1)
		return
	}
	p := &d.g.pids[d.pid]
	id := d.spans.call("core.Update", t0, t1)
	d.spans.child(id, "core.order", t0, p.tOrdered)
	d.spans.child(id, "core.persist", p.tOrdered, p.tPersisted)
	d.spans.child(id, "core.apply", p.tPersisted, p.tReturn)
	d.nStaged++
	d.orderNs += float64(p.tOrdered - t0)
	d.persistNs += float64(p.tPersisted - p.tOrdered)
	d.applyNs += float64(p.tReturn - p.tPersisted)
	d.stagedNs += float64(t1 - t0)
	if p.pf > 1 {
		d.cutUs = append(d.cutUs, float64(t1-t0)/1e3)
	}
}

// warm runs one whole pass of the stream, untimed.
func (d *libDriver) warm() {
	for range d.ops {
		d.step(-1)
	}
}

// loop runs calls until the phase stops, timing every sampleEvery-th.
func (d *libDriver) loop(ph *phase) {
	slices := len(d.lat[0])
	for {
		if d.calls%sampleEvery != 0 {
			d.step(-1)
			continue
		}
		d.done.Store(d.calls)
		if ph.stop.Load() {
			return
		}
		d.step(ph.timedSlice(slices))
	}
}

// together runs f on every driver in its own goroutine and waits.
func together(ds []*libDriver, f func(*libDriver)) {
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(d)
		}()
	}
	wg.Wait()
}

// snapLib reads the counters; the drivers must be stopped.
func snapLib(pool *pmem.Pool, in *core.Instance, ds []*libDriver, g *tracer) counters {
	c := snapCounters(pool, in, g)
	for _, d := range ds {
		c.updates += d.updates
		c.reads += d.reads
	}
	return c
}

// timedRun is what one timed phase of a library workload leaves behind.
type timedRun struct {
	pool     *pmem.Pool
	in       *core.Instance
	ds       []*libDriver
	rates    []float64
	from, to int64
	c0, c1   counters
}

// runLib warms the drivers, then times them for the given slices.
func runLib(pool *pmem.Pool, in *core.Instance, streams [][]op, g *tracer, slices int, each time.Duration) *timedRun {
	r := &timedRun{pool: pool, in: in}
	for pid, ops := range streams {
		r.ds = append(r.ds, newLibDriver(in.Handle(pid), ops, slices, g))
	}
	together(r.ds, (*libDriver).warm)
	r.c0 = snapLib(pool, in, r.ds, g)
	ph := newPhase()
	var wg sync.WaitGroup
	for _, d := range r.ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.loop(ph)
		}()
	}
	r.rates, r.from, r.to = ph.measure(0, each, slices, func() uint64 {
		var n uint64
		for _, d := range r.ds {
			n += d.done.Load()
		}
		return n
	})
	wg.Wait()
	r.c1 = snapLib(pool, in, r.ds, g)
	return r
}

func (r *timedRun) attempted() (calls, failed uint64) {
	for _, d := range r.ds {
		calls += d.calls
		failed += d.failed
	}
	return
}

// perSlice returns kind's (0 update, 1 read) timed calls per slice,
// all drivers together.
func (r *timedRun) perSlice(kind int) [][]uint32 {
	per := make([][]uint32, len(r.rates))
	for _, d := range r.ds {
		for s := range per {
			per[s] = append(per[s], d.lat[kind][s]...)
		}
	}
	return per
}

// checkLib runs the correctness gates shared by the traced and the
// untraced run: operations did not fail, the pfence ledger is exact,
// the final map is one the inputs allow, and each crash and recovery
// (the first right after the run) brings back that map and every
// acknowledged update. It returns the recovery times and the heap each
// fresh recovery held (cycler.heaps).
func (w libWorkload) checkLib(c *checker, r *timedRun, points []int) (recSecs, heapMBs []float64) {
	model, gaps := w.checkRun(c, r)
	y := &cycler{c: c, label: w.name, pool: r.pool, cfg: libConfig(nil), model: model, gaps: gaps, step: 1,
		apply: func(in *core.Instance, i int, ops []op) {
			h := in.Handle(i)
			for _, o := range ops {
				c.attempted++
				if _, _, err := h.Update(o.code, o.args[:o.n]...); err != nil {
					c.fail("%s: cycle update: %v", w.name, err)
				}
			}
		},
		acked: func(in *core.Instance) func(*core.Report) {
			last := make([]uint64, in.NProcs())
			for pid := range last {
				last[pid] = in.Handle(pid).NextOpID() - 1
			}
			return func(rep *core.Report) {
				for _, id := range last {
					checkAcked(c, w.name, rep, id)
				}
			}
		},
	}
	_, recSecs = y.run(r.in, points)
	return recSecs, y.heaps
}

// checkRun gates one timed run: its operations, its pfence ledger and
// its final map. It returns the map's model and the updates the crash
// cycles would apply next.
func (w libWorkload) checkRun(c *checker, r *timedRun) (*mapModel, [][]op) {
	w.checkOps(c, r)
	ledger(c, w.name, r.c0, r.c1, r.c1.updates-r.c0.updates)

	streams := make([][]op, len(r.ds))
	ncalls := make([]uint64, len(r.ds))
	gaps := make([][]op, len(r.ds))
	for i, d := range r.ds {
		streams[i], ncalls[i] = d.ops, d.calls
		gaps[i] = nextUpdates(d.ops, d.pos, gapUpdates())
	}
	model := newMapModel(w.keys, streams, ncalls)
	vals, size := model.readMap(r.in.Handle(0).Read)
	model.check(c, w.name+" final map", vals, size)
	return model, gaps
}

// checkOps gates that none of a timed run's operations failed.
func (w libWorkload) checkOps(c *checker, r *timedRun) {
	calls, failed := r.attempted()
	c.ops(w.name, calls, failed)
	for _, d := range r.ds {
		c.gate(d.firstErr == nil, "%s: p%d update failed: %v", w.name, d.pid, d.firstErr)
	}
}

// timeSetup times a set-up, repeated as again says if repeat is set,
// and keeps the last; each earlier one is handed to drop (if not nil)
// and released before the next.
func timeSetup[T any](repeat bool, setup func() (T, error), drop func(T)) (T, []float64, error) {
	var (
		v    T
		err  error
		secs []float64
	)
	for i := 0; i == 0 || (repeat && again(i, secs)); i++ {
		if i > 0 && drop != nil {
			drop(v)
		}
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		v, err = setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return v, secs, err
		}
	}
	return v, secs, nil
}

// again reports whether a repeated set-up with the given times so far
// takes another sample.
func again(i int, secs []float64) bool {
	var total float64
	for _, s := range secs {
		total += s
	}
	return i < minReps || (total < minRepTime.Seconds() && i < maxReps)
}

// heapLiveMB forces a GC and returns the bytes of live heap objects
// (HeapAlloc once the GC has swept: HeapInuse would also count the
// unused parts of spans, which vary with where objects happened to land).
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// libInstance is one set-up library instance.
type libInstance struct {
	pool *pmem.Pool
	in   *core.Instance
}

// endToEnd is the untraced run: every end-to-end metric, all gates.
func (w libWorkload) endToEnd(seed int64, seconds int, c *checker) []metric {
	streams := w.streams(seed)
	var (
		t                           timing
		setupSecs, recSecs, heapMBs []float64
	)
	n, per := split(seconds)
	for k := 0; k < n; k++ {
		inst, secs, err := timeSetup(k == 0, func() (libInstance, error) {
			pool, in, err := w.setup(nil)
			return libInstance{pool, in}, err
		}, nil)
		setupSecs = append(setupSecs, secs...)
		c.gate(err == nil, "%s: setup: %v", w.name, err)
		if err != nil {
			return nil
		}
		r := runLib(inst.pool, inst.in, streams, nil, per, time.Second)
		t.add(r.rates, r.perSlice, r.c0, r.c1, r.c1.updates+r.c1.reads-r.c0.updates-r.c0.reads)
		for _, d := range r.ds {
			d.lat = [2][][]uint32{}
		}
		secs, heaps := w.checkLib(c, r, crashPoints(k, n))
		recSecs = append(recSecs, secs...)
		heapMBs = append(heapMBs, heaps...)
	}
	return append(t.metrics(),
		metric{"recover_s", median(recSecs), "s", len(recSecs)},
		metric{"setup_s", median(setupSecs), "s", len(setupSecs)},
		metric{"heap_inuse_mb", median(heapMBs), "MiB", len(heapMBs)},
	)
}

// traced is the traced run: half the time untraced, for the tracing
// overhead, then half traced, for the per-layer split.
func (w libWorkload) traced(seed int64, seconds int, c *checker, spansOut *[]span) []metric {
	streams := w.streams(seed)
	half := max(seconds/2, 1)

	pool, in, err := w.setup(nil)
	c.gate(err == nil, "%s: setup: %v", w.name, err)
	if err != nil {
		return nil
	}
	plain := runLib(pool, in, streams, nil, half, time.Second)
	w.checkOps(c, plain)
	plainRate, plainSlices := median(plain.rates), len(plain.rates)
	plain, pool, in = nil, nil, nil

	g := newTracer(libProcs)
	pool, in, err = w.setup(g)
	c.gate(err == nil, "%s: traced setup: %v", w.name, err)
	if err != nil {
		return nil
	}
	r := runLib(pool, in, streams, g, half, time.Second)
	var st struct {
		n                             int
		order, persist, apply, staged float64
		cuts                          []float64
	}
	for _, d := range r.ds {
		st.n += d.nStaged
		st.order += d.orderNs
		st.persist += d.persistNs
		st.apply += d.applyNs
		st.staged += d.stagedNs
		st.cuts = append(st.cuts, d.cutUs...)
		*spansOut = append(*spansOut, d.spans.spans...)
	}
	sumFrac := ratio(st.order+st.persist+st.apply, st.staged)
	c.gate(sumFrac >= 1-stageTolerance && sumFrac <= 1,
		"%s: order+persist+apply cover %.3f of the traced Update time (tolerance %.2f)", w.name, sumFrac, stageTolerance)

	ms := append(stackMetrics(c, w.name, r.c0, r.c1),
		metric{"core.order_ns", ratio(st.order, float64(st.n)), "ns", st.n},
		metric{"core.persist_ns", ratio(st.persist, float64(st.n)), "ns", st.n},
		metric{"core.apply_ns", ratio(st.apply, float64(st.n)), "ns", st.n},
		metric{"core.stage_sum_frac", sumFrac, "ratio", st.n},
		metric{"core.cut_update_us", orZero(mean(st.cuts)), "us", len(st.cuts)},
		metric{"core.batch_stage_ns", 0, "ns", 0},
		metric{"core.batch_flush_ns", 0, "ns", 0},
	)
	ms = append(ms, serverUnused()...)
	ms = append(ms, objectsLayer(w.keys, streams[0])...)
	ms = append(ms, metric{"trace_overhead_frac", 1 - ratio(median(r.rates), plainRate), "ratio", len(r.rates) + plainSlices})
	w.checkLib(c, r, []int{0})
	return ms
}

// stageTolerance is how far order+persist+apply may fall short of the
// traced Update duration they split: the rest is the timer reads and
// the call's entry and exit around the three gate points.
const stageTolerance = 0.10

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
