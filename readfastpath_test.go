package onll

// Regression tests pinning the persistence cost of the version-stamped
// read fast path (core.Config.ReadFastPath): the fast path must not add
// persistence traffic. YCSB-C (read-only) stays at exactly ZERO
// persistent fences, and an update-only run stays at exactly ONE fence
// per update — identical to the fast-path-off construction. Reads also
// stay allocation-free (BenchmarkReadSteadyState guards allocs; these
// tests guard fences, which allocs cannot proxy for).

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// TestReadFastPathPfencesYCSBC: the read-only mix over a preloaded
// ordered map, fast path on, 8 processes — zero persistent fences, and
// zero ordinary fences from the read path too (reads write nothing).
func TestReadFastPathPfencesYCSBC(t *testing.T) {
	const nprocs = 8
	pool := pmem.New(workload.ThroughputPoolBytes(nprocs), nil)
	in, err := core.New(pool, objects.OrderedMapSpec{}, core.Config{
		NProcs: nprocs, ReadFastPath: true,
		LogCapacity: workload.ThroughputLogCapacity(nprocs),
	})
	if err != nil {
		t.Fatal(err)
	}
	y := workload.NewYCSB(workload.YCSBC)
	if err := y.Preload(in.Handle(0)); err != nil {
		t.Fatal(err)
	}
	streams, updates := y.Streams(nprocs, 400)
	if updates != 0 {
		t.Fatalf("YCSB-C generated %d updates", updates)
	}
	pool.ResetStats()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if err := workload.RunSteps(in.Handle(pid), streams[pid]); err != nil {
				panic(err)
			}
		}(pid)
	}
	wg.Wait()
	if pf := pool.TotalStats().PersistentFences; pf != 0 {
		t.Fatalf("YCSB-C with ReadFastPath: %d persistent fences, want exactly 0", pf)
	}
}

// TestReadFastPathPfencesUpdates: update-only counter run, fast path
// on, compaction off — exactly one persistent fence per update, no
// more, no fewer (the epoch bump is volatile and must stay so).
func TestReadFastPathPfencesUpdates(t *testing.T) {
	const nprocs = 8
	const perProc = 300
	pool := pmem.New(1<<26, nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{
		NProcs: nprocs, ReadFastPath: true, LogCapacity: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < perProc; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
				h.Read(objects.CounterGet) // interleaved reads must stay free
			}
		}(pid)
	}
	wg.Wait()
	if pf, want := pool.TotalStats().PersistentFences, uint64(nprocs*perProc); pf != want {
		t.Fatalf("updates with ReadFastPath: %d persistent fences for %d updates, want exactly 1/update", pf, want)
	}
}
