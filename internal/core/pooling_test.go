package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
)

// TestNodePoolingFeedsFreelist pins the reclamation pipeline: after a
// few compaction cycles the cutter's freelist holds recycled nodes, and
// subsequent updates consume them (no fresh allocation) while the
// object stays correct.
func TestNodePoolingFeedsFreelist(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, LogCapacity: 256, LocalViews: true, CompactEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	const n = 320 // ten compaction cycles
	for i := 0; i < n; i++ {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.freeNodes)+len(h.retired) == 0 {
		t.Fatal("compaction recycled no trace nodes")
	}
	free := len(h.freeNodes)
	if free == 0 {
		t.Fatal("no retired node was promoted to the freelist")
	}
	// The next updates must draw from the freelist...
	for i := 0; i < 8; i++ {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.freeNodes); got != free-8 {
		t.Fatalf("freelist %d -> %d after 8 updates, want %d", free, got, free-8)
	}
	// ...and the object must still compute correctly on recycled nodes.
	if got := h.Read(objects.CounterGet); got != n+8 {
		t.Fatalf("counter reads %d, want %d", got, n+8)
	}
}

// TestNodePoolingConcurrentCorrectness hammers pooling with compaction
// from every handle plus concurrent readers (run under -race in CI):
// recycled nodes must never surface stale state.
func TestNodePoolingConcurrentCorrectness(t *testing.T) {
	const nprocs, per = 4, 600
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: nprocs, LogCapacity: 512, LocalViews: true, CompactEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			var last uint64
			for i := 0; i < per; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
				// Counter reads must be monotone from any one process's
				// point of view (it sees at least its own updates).
				if got := h.Read(objects.CounterGet); got < last {
					panic("non-monotone counter read")
				} else {
					last = got
				}
			}
		}(pid)
	}
	wg.Wait()
	if got := in.Handle(0).Read(objects.CounterGet); got != nprocs*per {
		t.Fatalf("counter %d after %d updates", got, nprocs*per)
	}
	reused := 0
	for pid := 0; pid < nprocs; pid++ {
		reused += len(in.Handle(pid).freeNodes) + len(in.Handle(pid).retired)
	}
	if reused == 0 {
		t.Fatal("no nodes were recycled across any handle")
	}
}

// TestUpdateSteadyStateZeroAllocs pins the tentpole number: with local
// views and compaction warm, an update performs zero allocations
// outside the amortized compaction work.
func TestUpdateSteadyStateZeroAllocs(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 1, LogCapacity: 1 << 11, LocalViews: true, CompactEvery: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 3<<10; i++ { // three compaction cycles of warm-up
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	}
	// Measure a window that stays clear of the next compaction.
	avg := testing.AllocsPerRun(100, func() {
		if _, _, err := h.Update(objects.CounterInc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state update allocates %.2f objects/op, want 0", avg)
	}
}

// TestDeltaUpdateAllocBytes pins the heap bytes an update allocates
// under delta-chain compaction, amortized over the cuts, at the
// benchmark's library configuration (ordered map over 1,024 keys, 2
// handles, DeltaSnapshots, CompactEvery 1024). The 116 B/update it
// measures on go1.24 break down (DESIGN.md §3.2) into 72 B of trace
// nodes — the handle whose base cuts sever the trace pools every dead
// node, so the other handle's freelist stays empty and it allocates
// each node — 18 B each for a chain base's Snapshot() copy (kept by the
// trace's base node) and its snapEncode payload, and 8 B of view
// restores from another handle's base.
func TestDeltaUpdateAllocBytes(t *testing.T) {
	pool := pmem.New(1<<26, nil)
	in, err := New(pool, objects.OrderedMapSpec{}, Config{
		NProcs: 2, LogCapacity: 1 << 12, ReadFastPath: true,
		DeltaSnapshots: true, CompactEvery: 1 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	update := func(i int) {
		if _, _, err := in.Handle(i%2).Update(objects.OMapPut, uint64(rng.Intn(1024)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const warm, n = 1 << 15, 1 << 17
	for i := 0; i < warm; i++ {
		update(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+n; i++ {
		update(i)
	}
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B/update; node freelists %d and %d", perUpdate,
		len(in.Handle(0).freeNodes), len(in.Handle(1).freeNodes))
	if perUpdate > 120 {
		t.Fatalf("delta-compacting updates allocate %.1f B/update, want at most 120", perUpdate)
	}
}
