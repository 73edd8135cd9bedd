package core

import (
	"testing"

	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
)

// TestStrictRecoverReadsEachWordOnce pins the read side of recovery
// (DESIGN.md §3.6): a strict Recover of a 2-process delta-chain image
// loads the root words it needs, each log's header, each probed slot,
// the live overflow tails and the chain bodies, each counted once and
// nothing more. Before line-batched reads and single chain resolution,
// the log holding the newest chain read it three times — to rebuild
// the log's chain state, to check truncation coverage, and to fold the
// recovery base — and its partner's twice.
func TestStrictRecoverReadsEachWordOnce(t *testing.T) {
	cfg := Config{NProcs: 2, LogCapacity: 256, LocalViews: true, DeltaSnapshots: true, CompactEvery: 16}
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var model [256]uint64
	put := func(i int) {
		t.Helper()
		if _, _, err := in.Handle(i%2).Update(objects.OMapPut, uint64(i%256), uint64(i+1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		model[i%256] = uint64(i + 1)
	}
	i := 0
	for ; i < 256 || in.logs[0].ChainLen() < 5; i++ {
		put(i)
	}
	for end := i + 7; i < end; i++ { // live ops records past the chain head
		put(i)
	}
	if n := in.logs[0].ChainLen(); n < 4 {
		t.Fatalf("p0's chain has %d links, want at least 4", n)
	}

	pool.Crash(pmem.DropAll)
	before := pool.TotalStats().Loads
	in2, rep, err := Recover(pool, objects.OrderedMapSpec{}, Config{DeltaSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	loads := pool.TotalStats().Loads - before

	// The budget: the root magic, NProcs and one log pointer per
	// process; then per log its header line, every slot the scan probed
	// (the live records plus the stale one that ends it), the overflow
	// tails the live records own and the chain bodies.
	budget := uint64(2 + cfg.NProcs)
	for pid, l := range in2.logs {
		recs := l.Records()
		probed := len(recs) + 1
		if probed > l.Capacity() {
			probed = l.Capacity()
		}
		_, slotBytes := l.SlotRegion(1)
		w := pmem.LineWords + probed*slotBytes/pmem.WordSize + l.ChainBodyWords()
		for _, r := range recs {
			if _, words, ok := r.OverflowSpan(); ok {
				w += words
			}
			if r.Kind == plog.KindSnapshot {
				t.Fatalf("p%d: unexpected full snapshot record in a delta-chain image", pid)
			}
		}
		if l.ChainLen() == 0 {
			t.Fatalf("p%d: recovered log has no chain", pid)
		}
		budget += uint64(w)
	}
	if loads > budget {
		t.Fatalf("strict Recover loaded %d words, budget %d (each durable word once)", loads, budget)
	}
	t.Logf("strict Recover loaded %d words, budget %d", loads, budget)
	if rep.BaseIdx == 0 {
		t.Fatal("recovery did not restart from the chain")
	}
	for k, want := range model {
		if got := in2.Handle(0).Read(objects.OMapGet, uint64(k)); got != want {
			t.Fatalf("key %d: recovered %d, want %d", k, got, want)
		}
	}
}

// TestSnapshotRegionsRecycledAcrossCrashes is the full-snapshot twin
// of TestChainRegionsRecycledAcrossCrashes: recovery restores a log's
// ping-pong snapshot regions from its live snapshot record. Before,
// every recovered log allocated a fresh pair on its next two cuts and
// the pre-crash pair leaked — about 136 lines per crash/recover cycle
// of this workload. With the state bounded, allocation must level off
// after warm-up.
func TestSnapshotRegionsRecycledAcrossCrashes(t *testing.T) {
	cfg := Config{NProcs: 2, LogCapacity: 256, LocalViews: true, CompactEvery: 8}
	pool := pmem.New(16<<20, nil)
	in, err := New(pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, warm = 60, 10
	var atWarm uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < 64; i++ {
			if _, _, err := in.Handle(i%2).Update(objects.OMapPut, uint64(i%16), uint64(c*64+i)); err != nil {
				t.Fatalf("cycle %d update %d: %v", c, i, err)
			}
		}
		pool.Crash(pmem.DropAll)
		if in, _, err = Recover(pool, objects.OrderedMapSpec{}, cfg); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c == warm {
			atWarm = pool.AllocatedLines()
		}
	}
	if grew := pool.AllocatedLines() - atWarm; grew > 64 {
		t.Fatalf("allocated lines grew by %d over %d crash/recover cycles after warm-up (%d -> %d): snapshot regions leak",
			grew, cycles-warm-1, atWarm, pool.AllocatedLines())
	}
	for k := uint64(0); k < 16; k++ {
		if got, want := in.Handle(0).Read(objects.OMapGet, k), uint64((cycles-1)*64+48+int(k)); got != want {
			t.Fatalf("key %d: recovered %d, want %d", k, got, want)
		}
	}
}
