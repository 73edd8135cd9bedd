package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/workload"
)

const (
	// svcProcs: the batcher's updating handle plus one read handle per
	// client connection.
	svcProcs  = 3
	svcBatch  = 64
	svcWait   = 200 * time.Microsecond
	svcConns  = 2
	svcWindow = 64 // requests each connection keeps outstanding (a power of two: tags carry the slot)
	svcWarm   = 500 * time.Millisecond
	// svcTimingCap retains every update request of a traced half run.
	svcTimingCap = 1 << 19
	// respLen is a response frame: tag u32 | status u8 | ret u64 | id u64.
	respLen = 21
	// drainTimeout bounds how long the clients wait for their last
	// responses once the timed stretch ends.
	drainTimeout = 10 * time.Second
)

// svcWorkload drives an in-process internal/server over loopback TCP.
type svcWorkload struct {
	name string
	mix  workload.YCSBWorkload
	keys uint64
}

func (w svcWorkload) ycsb() *workload.YCSB {
	return &workload.YCSB{Mix: w.mix, KeySpace: w.keys, Theta: 1.01}
}

func svcConfig(g *tracer) core.Config {
	cfg := libConfig(g)
	cfg.NProcs = svcProcs
	cfg.LogMaxOps = svcProcs + svcBatch
	return cfg
}

func (w svcWorkload) params() map[string]any {
	cfg := svcConfig(nil)
	return map[string]any{
		"object": "orderedmap", "mix": string(w.mix), "keys": w.keys, "theta": 1.01,
		"loop": "closed", "connections": svcConns, "outstanding_per_connection": svcWindow,
		"stream_per_connection": streamLen, "transport": "tcp loopback", "ack": "persist",
		"batcher": map[string]any{"MaxBatch": svcBatch, "MaxWait": svcWait.String()},
		"config": map[string]any{
			"NProcs": cfg.NProcs, "LogMaxOps": cfg.LogMaxOps, "ReadFastPath": cfg.ReadFastPath,
			"DeltaSnapshots": cfg.DeltaSnapshots, "CompactEvery": cfg.CompactEvery, "LogCapacity": cfg.LogCapacity,
		},
		"pool_bytes": workload.ThroughputPoolBytes(svcProcs),
	}
}

func (w svcWorkload) streams(seed int64) [][]op {
	y := w.ycsb()
	out := make([][]op, svcConns)
	for i := range out {
		out[i] = compactSteps(y.Stream(deriveSeed(seed, 100+i), streamLen))
	}
	return out
}

type svcInstance struct {
	pool *pmem.Pool
	in   *core.Instance
	srv  *server.Server
}

// setup allocates the pool, opens and preloads the instance, and
// starts the server listening. timingCap < 0 disarms the server's
// per-request timing (no clock reads on the request path).
func (w svcWorkload) setup(g *tracer, timingCap int) (svcInstance, error) {
	if g != nil {
		g.setRole(0, roleBatcher, kindUpdate)
		for pid := 1; pid < svcProcs; pid++ {
			g.setRole(pid, roleReader, kindRead)
		}
	}
	pool := pmem.New(workload.ThroughputPoolBytes(svcProcs), gateOf(g))
	in, err := core.New(pool, objects.OrderedMapSpec{}, svcConfig(g))
	if err != nil {
		return svcInstance{}, err
	}
	if err := w.ycsb().Preload(in.Handle(0)); err != nil {
		return svcInstance{}, fmt.Errorf("preload: %w", err)
	}
	srv, err := server.New(in, server.Config{
		AckOnPersist: true,
		Batcher:      server.BatcherConfig{MaxBatch: svcBatch, MaxWait: svcWait},
		TimingCap:    timingCap,
	})
	if err != nil {
		return svcInstance{}, err
	}
	if err := srv.Listen("tcp", "127.0.0.1:0"); err != nil {
		return svcInstance{}, err
	}
	return svcInstance{pool, in, srv}, nil
}

// outstanding is one request in flight on a connection.
type outstanding struct {
	tag    uint32
	sent   time.Time
	update bool
	slice  int
}

// tagTimes is a traced update request as the client saw it (UnixNano).
type tagTimes struct {
	tag          uint32
	sent, arrive int64
}

// wireConn is one client connection and the goroutine driving it: a
// closed loop keeping svcWindow requests outstanding, replacing each as
// its response arrives. It speaks the server's wire protocol directly
// rather than through server.Client, so each response is timed when it
// is read, in arrival order, by the one goroutine; the Client hands
// responses to a channel per request and would need a goroutine per
// outstanding request to do the same.
type wireConn struct {
	id   int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	ops  []op
	pos  int

	sent, calls, updates, reads, failed uint64
	done                                atomic.Uint64
	err                                 error

	out [svcWindow]outstanding
	lat [2][][]uint32 // [update, read][slice] in ns
	// acked has bit seq set for every acknowledged update id: the
	// batcher's handle (pid 0) issues them, so the sequence number
	// identifies the id, and a bitmap keeps the benchmark's own memory
	// small whatever the throughput.
	acked     []uint64
	foreignID uint64     // an acknowledged id of another pid, if any
	recs      []tagTimes // traced run: timed update requests
}

func dialConn(id int, addr string, ops []op, slices int) (*wireConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{id: id, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), ops: ops}
	for k := range c.lat {
		c.lat[k] = make([][]uint32, slices)
	}
	return c, nil
}

// send writes the stream's next request into slot (buffered).
func (c *wireConn) send(slot int, ph *phase) error {
	o := &c.ops[c.pos]
	if c.pos++; c.pos == len(c.ops) {
		c.pos = 0
	}
	c.sent++
	tag := uint32(c.sent)<<7 | uint32(c.id)<<6 | uint32(slot)
	kind := server.KindRead
	if o.update {
		kind = server.KindUpdate
	}
	// request frame: tag u32 | kind u8 | code u64 | nargs u8 | nargs × u64
	var buf [14 + 8*2]byte
	binary.LittleEndian.PutUint32(buf[0:], tag)
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[5:], o.code)
	buf[13] = o.n
	for i := 0; i < int(o.n); i++ {
		binary.LittleEndian.PutUint64(buf[14+8*i:], o.args[i])
	}
	c.out[slot] = outstanding{tag: tag, sent: time.Now(), update: o.update, slice: ph.timedSlice(len(c.lat[0]))}
	_, err := c.bw.Write(buf[:14+8*int(o.n)])
	return err
}

// run drives the connection until the phase stops and every
// outstanding response has arrived.
func (c *wireConn) run(ph *phase, traced bool) error {
	for slot := 0; slot < svcWindow; slot++ {
		if err := c.send(slot, ph); err != nil {
			return err
		}
	}
	var buf [respLen]byte
	for inflight := svcWindow; inflight > 0; {
		if c.br.Buffered() < respLen && c.bw.Buffered() > 0 {
			if err := c.bw.Flush(); err != nil {
				return err
			}
		}
		if _, err := io.ReadFull(c.br, buf[:]); err != nil {
			return err
		}
		now := time.Now()
		tag := binary.LittleEndian.Uint32(buf[0:])
		slot := int(tag & (svcWindow - 1))
		p := &c.out[slot]
		if p.tag != tag {
			return fmt.Errorf("conn %d: response tag %#x does not match the request in flight (%#x)", c.id, tag, p.tag)
		}
		c.calls++
		c.done.Store(c.calls)
		k := 1
		if p.update {
			k = 0
			c.updates++
		} else {
			c.reads++
		}
		switch {
		case buf[4] != 0:
			c.failed++
		case p.update:
			c.ack(binary.LittleEndian.Uint64(buf[13:]))
		}
		if p.slice >= 0 {
			c.lat[k][p.slice] = append(c.lat[k][p.slice], uint32(min(now.Sub(p.sent).Nanoseconds(), math.MaxUint32)))
			if traced && p.update {
				c.recs = append(c.recs, tagTimes{tag, p.sent.UnixNano(), now.UnixNano()})
			}
		}
		if ph.stop.Load() {
			inflight--
			continue
		}
		if err := c.send(slot, ph); err != nil {
			return err
		}
	}
	return nil
}

// ack records an acknowledged update id.
func (c *wireConn) ack(id uint64) {
	pid, seq := spec.SplitID(id)
	if pid != 0 {
		c.foreignID = id
		return
	}
	w := int(seq / 64)
	for w >= len(c.acked) {
		c.acked = append(c.acked, 0)
	}
	c.acked[w] |= 1 << (seq % 64)
}

// ackedIDs calls f with every acknowledged id.
func (c *wireConn) ackedIDs(f func(id uint64)) {
	for w, bits := range c.acked {
		for ; bits != 0; bits &= bits - 1 {
			f(spec.MakeID(0, uint64(w*64+mathbits.TrailingZeros64(bits))))
		}
	}
}

// snapSvc reads the counters while the server is idle (before the
// clients connect, after it closed).
func snapSvc(inst svcInstance, g *tracer) counters {
	c := snapCounters(inst.pool, inst.in, g)
	st := inst.srv.Stats()
	c.updates, c.reads, c.flushes, c.batched = st.Updates, st.Reads, st.Flushes, st.Batched
	return c
}

// svcRun is what one timed phase of the service workload leaves behind.
// Its counters cover the server's whole serving time, warm-up included.
type svcRun struct {
	inst     svcInstance
	conns    []*wireConn
	rates    []float64
	from, to int64
	c0, c1   counters
}

// runSvc connects the clients, warms for svcWarm, times the given
// slices, then drains the clients and closes the server.
func runSvc(inst svcInstance, streams [][]op, g *tracer, slices int) (*svcRun, error) {
	r := &svcRun{inst: inst, c0: snapSvc(inst, g)}
	for i, ops := range streams {
		c, err := dialConn(i, inst.srv.Addr().String(), ops, slices)
		if err != nil {
			for _, c := range r.conns {
				c.conn.Close()
			}
			inst.srv.Close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	ph := newPhase()
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.err = c.run(ph, g != nil)
		}()
	}
	r.rates, r.from, r.to = ph.measure(svcWarm, time.Second, slices, func() uint64 {
		var n uint64
		for _, c := range r.conns {
			n += c.done.Load()
		}
		return n
	})
	// The drain must not outlast the run's time limit: a response that
	// never comes fails the read instead of hanging the benchmark.
	for _, c := range r.conns {
		c.conn.SetReadDeadline(time.Now().Add(drainTimeout))
	}
	wg.Wait()
	for _, c := range r.conns {
		c.conn.Close()
	}
	inst.srv.Close()
	r.c1 = snapSvc(inst, g)
	return r, nil
}

func (r *svcRun) attempted() (sent, failed uint64) {
	for _, c := range r.conns {
		sent += c.sent
		failed += c.failed
	}
	return
}

// perSlice returns kind's (0 update, 1 read) timed requests per slice,
// all connections together.
func (r *svcRun) perSlice(kind int) [][]uint32 {
	per := make([][]uint32, len(r.rates))
	for _, c := range r.conns {
		for s := range per {
			per[s] = append(per[s], c.lat[kind][s]...)
		}
	}
	return per
}

// checkSvc runs the service workload's correctness gates: no request
// failed, the pfence ledger holds with batcher flushes in place of
// updates, the final map is one the inputs allow, and each crash and
// recovery brings back that map and every acknowledged update. The
// first crash comes right after the drain, before any update of the
// benchmark's own, and its recovery must report every id the clients
// got back as persisted, one by one: the ids since the last cut must be
// found in the logs, not answered from the snapshot's coverage. It
// returns the recovery times and the heap each fresh recovery held
// (cycler.heaps).
func (w svcWorkload) checkSvc(c *checker, r *svcRun, points []int) (recSecs, heapMBs []float64) {
	model, gaps := w.checkServed(c, r)
	// The cycles stage updates through a batch on the batcher's handle,
	// flushing every svcBatch, as the server would.
	y := &cycler{c: c, label: w.name, pool: r.inst.pool, cfg: svcConfig(nil), model: model, gaps: gaps,
		readPid: 1, step: svcBatch,
		apply: func(in *core.Instance, _ int, ops []op) {
			b := in.Handle(0).NewBatch()
			for _, o := range ops {
				c.attempted++
				if _, _, err := b.Stage(o.code, o.args[:o.n]...); err != nil {
					c.fail("%s: cycle stage: %v", w.name, err)
				}
				if b.Pending() >= svcBatch {
					if err := b.Flush(); err != nil {
						c.fail("%s: cycle flush: %v", w.name, err)
					}
				}
			}
			if err := b.Flush(); err != nil {
				c.fail("%s: cycle flush: %v", w.name, err)
			}
		},
		// Every op the batcher's handle staged was flushed, so its whole
		// id range is acknowledged.
		acked: func(in *core.Instance) func(*core.Report) {
			last := in.Handle(0).NextOpID() - 1
			return func(rep *core.Report) { checkAcked(c, w.name, rep, last) }
		},
	}
	first, recSecs := y.run(r.inst.in, points)
	if first == nil {
		return recSecs, y.heaps
	}
	lost, acked, above := 0, 0, 0
	for _, conn := range r.conns {
		c.gate(conn.foreignID == 0, "%s: conn %d: update acknowledged with id %#x, not the batcher's", w.name, conn.id, conn.foreignID)
		conn.ackedIDs(func(id uint64) {
			acked++
			if _, seq := spec.SplitID(id); seq > first.CoveredSeq[0] {
				above++
			}
			if _, ok := first.WasLinearized(id); !ok {
				lost++
			}
		})
	}
	c.gate(lost == 0, "%s: recovery after the drain lost %d of %d persist-acked updates", w.name, lost, acked)
	fmt.Printf("%s: crash after the drain: %d persist-acked updates, %d of them above the recovered snapshot\n", w.name, acked, above)
	return recSecs, y.heaps
}

// checkServed gates one served run: its requests, its pfence ledger and
// its final map. It returns the map's model and the updates the crash
// cycles would apply next.
func (w svcWorkload) checkServed(c *checker, r *svcRun) (*mapModel, [][]op) {
	w.checkRequests(c, r)
	ledger(c, w.name, r.c0, r.c1, r.c1.flushes-r.c0.flushes)

	streams := make([][]op, len(r.conns))
	calls := make([]uint64, len(r.conns))
	for i, conn := range r.conns {
		streams[i], calls[i] = conn.ops, conn.sent
	}
	// One updating handle, so one stream feeds the cycles.
	gaps := [][]op{nextUpdates(r.conns[0].ops, r.conns[0].pos, gapUpdates())}
	model := newMapModel(w.keys, streams, calls)
	vals, size := model.readMap(r.inst.in.Handle(1).Read)
	model.check(c, w.name+" final map", vals, size)
	return model, gaps
}

// checkRequests gates that every request of a served run got a
// response and none failed.
func (w svcWorkload) checkRequests(c *checker, r *svcRun) {
	sent, failed := r.attempted()
	c.ops(w.name, sent, failed)
	for _, conn := range r.conns {
		c.gate(conn.err == nil, "%s: conn %d: %v", w.name, conn.id, conn.err)
		c.gate(conn.calls == conn.sent, "%s: conn %d: %d responses for %d requests", w.name, conn.id, conn.calls, conn.sent)
	}
}

func (w svcWorkload) endToEnd(seed int64, seconds int, c *checker) []metric {
	streams := w.streams(seed)
	var (
		t                           timing
		setupSecs, recSecs, heapMBs []float64
	)
	n, per := split(seconds)
	for k := 0; k < n; k++ {
		inst, secs, err := timeSetup(k == 0, func() (svcInstance, error) {
			return w.setup(nil, -1)
		}, func(i svcInstance) { i.srv.Close() })
		setupSecs = append(setupSecs, secs...)
		c.gate(err == nil, "%s: setup: %v", w.name, err)
		if err != nil {
			return nil
		}
		r, err := runSvc(inst, streams, nil, per)
		c.gate(err == nil, "%s: run: %v", w.name, err)
		if err != nil {
			return nil
		}
		var calls uint64
		for _, conn := range r.conns {
			calls += conn.calls
		}
		t.add(r.rates, r.perSlice, r.c0, r.c1, calls)
		for _, conn := range r.conns {
			conn.lat = [2][][]uint32{}
		}
		secs, heaps := w.checkSvc(c, r, crashPoints(k, n))
		recSecs = append(recSecs, secs...)
		heapMBs = append(heapMBs, heaps...)
	}
	return append(t.metrics(),
		metric{"recover_s", median(recSecs), "s", len(recSecs)},
		metric{"setup_s", median(setupSecs), "s", len(setupSecs)},
		metric{"heap_inuse_mb", median(heapMBs), "MiB", len(heapMBs)},
	)
}

// timingRow is one row of the server's DumpTimings CSV.
type timingRow struct {
	tag                              uint32
	id                               uint64
	enqueue, stage, persist, respond int64
}

func parseTimings(srv *server.Server) ([]timingRow, error) {
	var buf bytes.Buffer
	if err := srv.DumpTimings(&buf); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] != server.CSVHeader {
		return nil, fmt.Errorf("timings: unexpected header")
	}
	rows := make([]timingRow, 0, len(lines)-1)
	for _, ln := range lines[1:] {
		f := strings.Split(ln, ",")
		if len(f) != 10 {
			return nil, fmt.Errorf("timings: row %q", ln)
		}
		var v [10]int64
		for _, i := range []int{0, 4, 6, 7, 8, 9} {
			u, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("timings: row %q: %w", ln, err)
			}
			v[i] = int64(u)
		}
		rows = append(rows, timingRow{tag: uint32(v[0]), id: uint64(v[4]),
			enqueue: v[6], stage: v[7], persist: v[8], respond: v[9]})
	}
	return rows, nil
}

// traced is the traced run: half untraced for the tracing overhead,
// half traced, with server timing capture armed, for the per-layer split.
func (w svcWorkload) traced(seed int64, seconds int, c *checker, spansOut *[]span) []metric {
	streams := w.streams(seed)
	half := max(seconds/2, 1)

	inst, err := w.setup(nil, -1)
	c.gate(err == nil, "%s: setup: %v", w.name, err)
	if err != nil {
		return nil
	}
	plain, err := runSvc(inst, streams, nil, half)
	c.gate(err == nil, "%s: run: %v", w.name, err)
	if err != nil {
		return nil
	}
	w.checkRequests(c, plain)
	plainRate, plainSlices := median(plain.rates), len(plain.rates)
	plain, inst = nil, svcInstance{}

	g := newTracer(svcProcs)
	inst, err = w.setup(g, svcTimingCap)
	c.gate(err == nil, "%s: traced setup: %v", w.name, err)
	if err != nil {
		return nil
	}
	r, err := runSvc(inst, streams, g, half)
	c.gate(err == nil, "%s: traced run: %v", w.name, err)
	if err != nil {
		return nil
	}
	flushes := float64(r.c1.flushes - r.c0.flushes)

	rows, err := parseTimings(inst.srv)
	c.gate(err == nil, "%s: %v", w.name, err)
	client := map[uint32]tagTimes{}
	for _, conn := range r.conns {
		for _, rec := range conn.recs {
			client[rec.tag] = rec
		}
	}
	rets := g.pids[0].rets
	sl := newSpanLog(4*spanCap, 1<<56)
	var queue, flushWait, respond, stage, overhead []float64
	for _, row := range rows {
		if row.enqueue < r.from || row.enqueue >= r.to {
			continue
		}
		cl, ok := client[row.tag]
		id := uint64(0)
		if ok {
			id = sl.call("client.update", cl.sent, cl.arrive)
			overhead = append(overhead, float64((cl.arrive-cl.sent)-(row.respond-row.enqueue))/1e3)
		}
		queue = append(queue, float64(row.stage-row.enqueue)/1e3)
		flushWait = append(flushWait, float64(row.persist-row.stage)/1e3)
		respond = append(respond, float64(row.respond-row.persist)/1e3)
		sl.child(id, "server.queue", row.enqueue, row.stage)
		sl.child(id, "server.flush_wait", row.stage, row.persist)
		sl.child(id, "server.respond", row.persist, row.respond)
		if _, seq := spec.SplitID(row.id); seq >= 1 && seq <= uint64(len(rets)) {
			stage = append(stage, float64(rets[seq-1]-row.stage))
			sl.child(id, "core.batch_stage", row.stage, rets[seq-1])
		}
	}
	flushNs, nFlush := intervalMeanNs(g.pids[0].flushes, r.from, r.to)
	var readIv []interval
	for pid := 1; pid < svcProcs; pid++ {
		readIv = append(readIv, g.pids[pid].reads...)
		for _, iv := range g.pids[pid].reads {
			if iv.start >= r.from && iv.start < r.to {
				sl.call("core.Read", iv.start, iv.end)
			}
		}
	}
	for _, iv := range g.pids[0].flushes {
		if iv.start >= r.from && iv.start < r.to {
			sl.call("core.batch_flush", iv.start, iv.end)
		}
	}
	readNs, nRead := intervalMeanNs(readIv, r.from, r.to)
	*spansOut = append(*spansOut, sl.spans...)
	ms := append(stackMetrics(c, w.name, r.c0, r.c1),
		metric{"core.order_ns", 0, "ns", 0},
		metric{"core.persist_ns", 0, "ns", 0},
		metric{"core.apply_ns", 0, "ns", 0},
		metric{"core.stage_sum_frac", 0, "ratio", 0},
		metric{"core.cut_update_us", 0, "us", 0},
		metric{"core.batch_stage_ns", orZero(mean(stage)), "ns", len(stage)},
		metric{"core.batch_flush_ns", flushNs, "ns", nFlush},
		metric{"server.batch_size", ratio(float64(r.c1.batched-r.c0.batched), flushes), "1/flush", int(flushes)},
		metric{"server.queue_wait_us", orZero(mean(queue)), "us", len(queue)},
		metric{"server.flush_wait_us", orZero(mean(flushWait)), "us", len(flushWait)},
		metric{"server.respond_us", orZero(mean(respond)), "us", len(respond)},
		metric{"server.read_us", readNs / 1e3, "us", nRead},
		metric{"server.client_overhead_us", orZero(mean(overhead)), "us", len(overhead)},
	)
	ms = append(ms, objectsLayer(w.keys, streams[0])...)
	ms = append(ms, metric{"trace_overhead_frac", 1 - ratio(median(r.rates), plainRate), "ratio", len(r.rates) + plainSlices})
	w.checkSvc(c, r, []int{0})
	return ms
}
