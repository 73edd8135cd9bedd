package main

import (
	"time"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
)

// Layer drivers: direct calls into one layer's public functions, timed
// in bulk, on the traced run only. They give each layer's cost with
// nothing above it, to set against the spans of the full stack.

const layerReps = 5 // passes per driver; each reports the median pass

// timePer runs f reps times and returns the median time per call,
// calls being the number of calls one run of f makes.
func timePer(reps, calls int, f func()) float64 {
	per := make([]float64, reps)
	for i := range per {
		t0 := time.Now()
		f()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// objectsLayer replays the workload's own stream on a bare ordered-map
// state of the preload size: every update through State.Apply, then
// every read through State.Read on the resulting state.
func objectsLayer(keys uint64, ops []op) []metric {
	st := objects.OrderedMapSpec{}.New()
	for k := uint64(1); k <= keys; k++ {
		st.Apply(spec.Op{Code: objects.OMapPut, Args: [3]uint64{k, k * 7}})
	}
	var upd, rd []spec.Op
	for _, o := range ops {
		s := spec.Op{Code: o.code}
		copy(s.Args[:], o.args[:o.n])
		if o.update {
			upd = append(upd, s)
		} else {
			rd = append(rd, s)
		}
	}
	var sink uint64
	applyNs := timePer(layerReps, len(upd), func() {
		for _, o := range upd {
			sink += st.Apply(o)
		}
	})
	readNs := timePer(layerReps, len(rd), func() {
		for _, o := range rd {
			sink += st.Read(o)
		}
	})
	_ = sink
	words := 0
	if s, ok := st.(spec.Sizer); ok {
		words = s.SizeHint()
	}
	return []metric{
		{"objects.apply_ns", orZero(applyNs), "ns", len(upd) * layerReps},
		{"objects.read_ns", orZero(readNs), "ns", len(rd) * layerReps},
		{"objects.state_words", float64(words), "words", 1},
	}
}

// plogLayer appends 1- and 2-op records, alternating (the fuzzy windows
// two processes produce), to a log on a bare pool, truncating between
// passes. Each append is one record and one persistent fence.
func plogLayer() ([]metric, error) {
	const capacity, perPass = 4096, 2048
	pool := pmem.New(1<<24, nil)
	l, err := plog.Create(pool, 0, capacity, 2)
	if err != nil {
		return nil, err
	}
	ops := []spec.Op{{Code: objects.OMapPut, Args: [3]uint64{1, 2}, ID: 1}, {Code: objects.OMapPut, Args: [3]uint64{3, 4}, ID: 2}}
	var idx uint64
	var appendErr error
	ns := timePer(layerReps*4, perPass, func() {
		for i := 0; i < perPass; i++ {
			idx++
			if _, err := l.Append(ops[:1+i%2], idx); err != nil && appendErr == nil {
				appendErr = err
			}
		}
		if err := l.Truncate(l.NextSeq() - 1); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	return []metric{{"plog.append_ns", ns, "ns", layerReps * 4 * perPass}}, appendErr
}

// pmemLayer persists one line at a time: StoreLine, Flush, Fence.
func pmemLayer() []metric {
	const lines = 1 << 14
	pool := pmem.New(lines*pmem.LineSize+1<<16, nil)
	base := pool.MustAlloc(lines * pmem.LineSize)
	vals := make([]uint64, pmem.LineWords)
	ns := timePer(layerReps, lines, func() {
		for i := 0; i < lines; i++ {
			a := base + pmem.Addr(i*pmem.LineSize)
			vals[0]++
			pool.StoreLine(0, a, vals)
			pool.Flush(0, a)
			pool.Fence(0)
		}
	})
	return []metric{{"pmem.fence_line_ns", ns, "ns", layerReps * lines}}
}

// serverUnused lists the server layer's metrics as 0 for the library
// workloads, which do not run a server.
func serverUnused() []metric {
	var ms []metric
	for _, n := range []string{"server.batch_size", "server.queue_wait_us", "server.flush_wait_us",
		"server.respond_us", "server.read_us", "server.client_overhead_us"} {
		unit := "us"
		if n == "server.batch_size" {
			unit = "1/flush"
		}
		ms = append(ms, metric{n, 0, unit, 0})
	}
	return ms
}
