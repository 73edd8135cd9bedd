package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// Operation kinds a driver announces to the tracer before each call, so
// counts land on the kind of operation that caused them.
const (
	kindNone   = iota // set-up, preload, anything not announced
	kindUpdate        // Handle.Update, Batch.Stage, Batch.Flush
	kindRead          // Handle.Read
	nKinds
)

// Counted gate points. Every other point passes straight through.
const (
	cPfence = iota
	cScan
	cCasTail
	cSlotRead
	cAdopt
	cPublish
	nCounted
)

// Per-pid tracing roles.
const (
	// roleDriven: a benchmark goroutine owns the pid and announces the
	// kind of every call and whether it is a timed sample.
	roleDriven = iota
	// roleBatcher: the server's batcher owns the pid; every call is an
	// update (Stage or Flush) and every call is traced.
	roleBatcher
	// roleReader: a server connection owns the pid; every call is a
	// read and every call is traced.
	roleReader
)

// interval is one traced stretch of a call, in UnixNano.
type interval struct{ start, end int64 }

// pidTrace is the tracer's state for one simulated process. Only the
// goroutine running that process writes it (a pid runs one operation at
// a time), so everything but the counters is plain; the counters are
// atomic so the coordinator can snapshot them mid-run. The trailing pad
// keeps neighbouring pids off each other's cache lines.
type pidTrace struct {
	role int
	kind int
	// armed: timestamp this call's stage boundaries.
	armed bool
	// sawSlot, sawScan: the current read left the own-view fast path.
	sawSlot, sawScan bool
	inFlush          bool
	// pf counts persistent fences issued by the current call.
	pf int

	tOrdered, tPersisted, tReturn int64
	tFlush, tEpoch                int64

	counts    [nKinds][nCounted]atomic.Uint64
	epochHits atomic.Uint64

	// roleBatcher: op.return time of the pid's n-th call (index n-1,
	// preload included), so a server timing row joins its Stage by op
	// sequence number; and each Flush from its first collect step to
	// its fence.
	rets    []int64
	flushes []interval
	// roleReader: each read from its epoch load to its return.
	reads []interval

	_ [64]byte
}

// tracer is the benchmark-owned sched.Gate of the traced run. It
// timestamps only the three stage boundaries of core's pipeline
// (onll.ordered, onll.persisted, op.return) on armed calls and counts a
// handful of points; a gate that switched on every primitive and
// timestamped each would cost more than the work it measures.
type tracer struct {
	pids []pidTrace
}

func newTracer(nprocs int) *tracer {
	return &tracer{pids: make([]pidTrace, nprocs)}
}

// gateOf returns g as a sched.Gate, or nil for the untraced run (a nil
// *tracer inside a non-nil interface would be called).
func gateOf(g *tracer) sched.Gate {
	if g == nil {
		return nil
	}
	return g
}

func nowNs() int64 { return time.Now().UnixNano() }

// Step implements sched.Gate.
func (g *tracer) Step(pid int, point string) {
	if pid < 0 || pid >= len(g.pids) {
		return // pool-internal pids (root claims) are not traced
	}
	p := &g.pids[pid]
	switch point {
	case "pmem.pfence":
		p.counts[p.kind][cPfence].Add(1)
		p.pf++
	case "trace.scan":
		p.counts[p.kind][cScan].Add(1)
		p.sawScan = true
		if p.role == roleBatcher && !p.inFlush {
			// Only Flush's collect walk scans on the batcher's pid.
			p.inFlush, p.tFlush = true, nowNs()
		}
	case "trace.cas-tail":
		p.counts[p.kind][cCasTail].Add(1)
	case core.PointSlotRead:
		p.counts[p.kind][cSlotRead].Add(1)
		p.sawSlot = true
	case core.PointAdopt:
		p.counts[p.kind][cAdopt].Add(1)
	case core.PointPublish:
		p.counts[p.kind][cPublish].Add(1)
	case "trace.epoch":
		if p.role == roleReader {
			p.tEpoch = nowNs()
		}
	case core.PointOrdered:
		if p.armed {
			p.tOrdered = nowNs()
		}
	case core.PointPersisted:
		if p.armed {
			p.tPersisted = nowNs()
		}
		if p.inFlush {
			p.flushes = append(p.flushes, interval{p.tFlush, nowNs()})
			p.inFlush = false
		}
	case core.PointReturn:
		if p.kind == kindRead && !p.sawSlot && !p.sawScan {
			p.epochHits.Add(1)
		}
		p.sawSlot, p.sawScan = false, false
		switch {
		case p.role == roleBatcher:
			p.rets = append(p.rets, nowNs())
		case p.role == roleReader:
			p.reads = append(p.reads, interval{p.tEpoch, nowNs()})
		case p.armed:
			p.tReturn = nowNs()
		}
	}
}

// begin announces the next call of a driven pid.
func (g *tracer) begin(pid, kind int, armed bool) {
	p := &g.pids[pid]
	p.kind, p.armed, p.pf = kind, armed, 0
}

// setRole fixes a pid's role and kind for its whole life (server pids).
func (g *tracer) setRole(pid, role, kind int) {
	p := &g.pids[pid]
	p.role, p.kind, p.armed = role, kind, role != roleDriven
}

// gateCounts is a snapshot of every pid's counters, summed by kind.
type gateCounts struct {
	n         [nKinds][nCounted]uint64
	epochHits uint64
}

func (g *tracer) snapshot() gateCounts {
	var c gateCounts
	for i := range g.pids {
		p := &g.pids[i]
		for k := 0; k < nKinds; k++ {
			for j := 0; j < nCounted; j++ {
				c.n[k][j] += p.counts[k][j].Load()
			}
		}
		c.epochHits += p.epochHits.Load()
	}
	return c
}

func (c gateCounts) sub(o gateCounts) gateCounts {
	for k := 0; k < nKinds; k++ {
		for j := 0; j < nCounted; j++ {
			c.n[k][j] -= o.n[k][j]
		}
	}
	c.epochHits -= o.epochHits
	return c
}

// span is one traced interval: a call (parent 0) or a stage of one.
// Calls are numbered per run; stages carry their call's id as parent.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

// spanLog keeps a run's spans in memory, up to a fixed cap, until the
// run writes them out.
type spanLog struct {
	spans []span
	next  uint64 // last id issued; logs of one run start at disjoint bases
	cap   int
}

func newSpanLog(capacity int, base uint64) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity), next: base, cap: capacity}
}

// call records a call span and returns its id (0 once the log is full).
func (l *spanLog) call(name string, start, end int64) uint64 {
	if len(l.spans) >= l.cap {
		return 0
	}
	l.next++
	l.spans = append(l.spans, span{id: l.next, name: name, start: start, end: end})
	return l.next
}

// child records a stage of call parent.
func (l *spanLog) child(parent uint64, name string, start, end int64) {
	if parent == 0 || len(l.spans) >= l.cap {
		return
	}
	l.next++
	l.spans = append(l.spans, span{id: l.next, parent: parent, name: name, start: start, end: end})
}
