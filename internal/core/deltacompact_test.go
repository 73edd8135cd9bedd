package core

import (
	"math/rand"
	"testing"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestDeltaCompactionRoundTrip drives a map through enough updates for
// many delta cuts (and at least one collapse), crashes, and requires
// recovery to fold base + deltas + live records back into exactly the
// pre-crash state, with every completed update still detectable.
func TestDeltaCompactionRoundTrip(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 2, LogCapacity: 256,
		DeltaSnapshots: true, CompactEvery: 8, MaxDeltaChain: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	model := map[uint64]uint64{}
	var ids []uint64
	for i := 0; i < 200; i++ {
		h := in.Handle(i % 2)
		k := uint64(rng.Intn(64))
		var id uint64
		if rng.Intn(5) == 0 {
			_, id, err = h.Update(objects.MapDel, k)
			delete(model, k)
		} else {
			v := uint64(i + 1)
			_, id, err = h.Update(objects.MapPut, k, v)
			model[k] = v
		}
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	st := in.CompactionStats()
	if st.Bases == 0 || st.Deltas == 0 {
		t.Fatalf("expected base and delta cuts, got %+v", st)
	}
	if st.Collapses == 0 {
		t.Fatalf("MaxDeltaChain 4 over %d cuts never collapsed: %+v", st.Bases+st.Deltas, st)
	}
	if st.SnapshotWords >= st.FullEquivWords {
		t.Fatalf("delta cuts wrote %d words vs %d full-equivalent: no savings",
			st.SnapshotWords, st.FullEquivWords)
	}

	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.MapSpec{}, Config{DeltaSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseIdx == 0 {
		t.Fatal("recovery found no compaction record to restart from")
	}
	h := in2.Handle(0)
	for k := uint64(0); k < 64; k++ {
		want := spec.RetMissing
		if v, ok := model[k]; ok {
			want = v
		}
		if got := h.Read(objects.MapGet, k); got != want {
			t.Fatalf("key %d: recovered %d, want %d", k, got, want)
		}
	}
	for _, id := range ids {
		if _, ok := rep.WasLinearized(id); !ok {
			t.Fatalf("op %#x vanished across delta compaction", id)
		}
	}

	// The recovered instance keeps cutting — updates must keep landing.
	for i := 0; i < 40; i++ {
		if _, _, err := in2.Handle(i%2).Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatalf("post-recovery update %d: %v", i, err)
		}
	}
}

// TestDeltaCompactionPfences pins the fence bill under delta-chain
// compaction: N updates at cadence C cost exactly N + 2*cuts persistent
// fences (each cut is one chain append plus one truncate, identical to
// a full-snapshot cut), and reads stay at zero.
func TestDeltaCompactionPfences(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 256, DeltaSnapshots: true, CompactEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	h := in.Handle(0)
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i%8), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := in.CompactionStats()
	cuts := st.Bases + st.Deltas
	if cuts != n/4 {
		t.Fatalf("%d cuts at cadence 4 over %d updates, want %d", cuts, n, n/4)
	}
	if pf := pool.StatsOf(0).PersistentFences; pf != n+2*cuts {
		t.Fatalf("%d updates + %d cuts cost %d pfences, want %d", n, cuts, pf, n+2*cuts)
	}
	before := pool.StatsOf(0).PersistentFences
	for i := 0; i < 50; i++ {
		h.Read(objects.MapGet, uint64(i%8))
	}
	if pf := pool.StatsOf(0).PersistentFences; pf != before {
		t.Fatalf("reads cost %d pfences", pf-before)
	}
}

// TestDeltaChainCollapseCadence pins the collapse policy: with
// MaxDeltaChain M, every M-th cut lays a fresh base, so the chain never
// exceeds M links and the base/delta mix over K cuts is exactly K/M vs
// the rest.
func TestDeltaChainCollapseCadence(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	const m = 3
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 256,
		DeltaSnapshots: true, CompactEvery: 4, MaxDeltaChain: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 120; i++ {
		// Distinct keys: the state outgrows any delta, so the size-based
		// collapse never preempts the length-based one under test.
		if _, _, err := h.Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if cl := in.Log(0).ChainLen(); cl > m {
			t.Fatalf("chain grew to %d links, cap %d", cl, m)
		}
	}
	st := in.CompactionStats()
	if cuts := st.Bases + st.Deltas; cuts != 30 {
		t.Fatalf("%d cuts, want 30", cuts)
	}
	if st.Bases != 10 || st.Deltas != 20 {
		t.Fatalf("cut mix bases=%d deltas=%d, want 10/20", st.Bases, st.Deltas)
	}
	if st.Collapses != st.Bases-1 {
		t.Fatalf("%d collapses for %d bases (first base is fresh)", st.Collapses, st.Bases)
	}
}

// TestSizeAwareCadenceDefault pins cutEvery's adaptive default: with
// DeltaSnapshots and no CompactEvery, the cadence starts at the floor,
// grows with the state, respects the capacity ceiling, and keeps the
// log bounded without any explicit CompactEvery.
func TestSizeAwareCadenceDefault(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 1, LogCapacity: 512, DeltaSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	small := h.cutEvery()
	if small < 64 {
		t.Fatalf("empty-state cadence %d below floor 64", small)
	}
	for i := 0; i < 2000; i++ {
		if _, _, err := h.Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.cutEvery(); got <= small {
		t.Fatalf("cadence %d did not grow with the state (was %d)", got, small)
	} else if got > 512/4 {
		t.Fatalf("cadence %d above ceiling %d", got, 512/4)
	}
	if st := in.CompactionStats(); st.Bases+st.Deltas == 0 {
		t.Fatal("size-aware cadence never cut")
	}
	if live := in.Log(0).Len(); live > 300 {
		t.Fatalf("log holds %d live records; cadence is not bounding it", live)
	}
}

// TestValveUsesDeltaPath pins the pressure valve's delta leg. The
// overflow-ring geometry and stall choreography mirror
// TestUpdateSurvivesOverflowRingExhaustion: each round p1 stalls
// between order and persist, so every p0 record spills past the inline
// budget of 1 into the 16-tail ring. The first exhaustion lays a chain
// base; later exhaustions must cut deltas (ValveDeltas advances)
// instead of rewriting the by-then-large map snapshot, and the full
// history still survives a crash.
func TestValveUsesDeltaPath(t *testing.T) {
	const seed = 40   // distinct keys, so the state dwarfs any delta
	const rounds = 48 // ~3 ring exhaustions at 16 spilled tails each
	ctl := sched.NewController()
	pool := pmem.New(1<<22, ctl)
	in, err := New(pool, objects.MapSpec{}, Config{
		NProcs: 3, LogCapacity: 64, LogInlineOps: 1,
		LocalViews: true, DeltaSnapshots: true, CompactEvery: 1 << 20, Gate: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	done1 := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.MapPut, uint64(10000+i), 1); err != nil {
				panic(err)
			}
		}
	})
	done0 := ctl.Spawn(0, func() {
		h := in.Handle(0)
		for i := 0; i < seed; i++ {
			if _, _, err := h.Update(objects.MapPut, uint64(i), uint64(i)); err != nil {
				panic(err)
			}
		}
		for i := 0; i < rounds; i++ {
			if _, _, err := h.Update(objects.MapPut, uint64(20000+i), 1); err != nil {
				panic(err)
			}
		}
	})
	for i := 0; i < seed; i++ {
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("seed %d: p0 finished early", i)
		}
	}
	for i := 0; i < rounds; i++ {
		if _, ok := ctl.RunUntil(1, sched.AtPoint(PointOrdered)); !ok {
			t.Fatalf("round %d: p1 finished early", i)
		}
		if _, ok := ctl.RunPast(0, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p0 finished early", i)
		}
		if _, ok := ctl.RunPast(1, sched.AtPoint(PointReturn)); !ok {
			t.Fatalf("round %d: p1 could not finish its update", i)
		}
	}
	ctl.RunToCompletion(0)
	ctl.RunToCompletion(1)
	if out := <-done0; out != nil {
		t.Fatalf("p0 failed under ring exhaustion: %v", out)
	}
	if out := <-done1; out != nil {
		t.Fatalf("p1 failed: %v", out)
	}
	ctl.KillAll()

	st := in.CompactionStats()
	if st.Bases == 0 {
		t.Fatalf("valve never laid a chain base: %+v (valve fired %d times)",
			st, in.Pressure().ValveFires)
	}
	if st.ValveDeltas == 0 {
		t.Fatalf("valve never took the delta path: %+v (valve fired %d times)",
			st, in.Pressure().ValveFires)
	}

	pool.SetGate(nil)
	pool.Crash(pmem.DropAll)
	in2, rep, err := Recover(pool, objects.MapSpec{}, Config{DeltaSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	h := in2.Handle(0)
	for i := 0; i < seed; i++ {
		if got := h.Read(objects.MapGet, uint64(i)); got != uint64(i) {
			t.Fatalf("seed key %d recovered as %d", i, got)
		}
	}
	for i := 0; i < rounds; i++ {
		if got := h.Read(objects.MapGet, uint64(20000+i)); got != 1 {
			t.Fatalf("p0 round key %d recovered as %d", i, got)
		}
		if got := h.Read(objects.MapGet, uint64(10000+i)); got != 1 {
			t.Fatalf("p1 round key %d recovered as %d", i, got)
		}
	}
	for pid := 0; pid < 2; pid++ {
		n := uint64(rounds)
		if pid == 0 {
			n += seed
		}
		for seq := uint64(1); seq <= n; seq++ {
			if _, ok := rep.WasLinearized(spec.MakeID(pid, seq)); !ok {
				t.Fatalf("p%d op %d vanished across valve delta cuts", pid, seq)
			}
		}
	}
}

// TestDeltaFallbackOpReplay pins the universal fallback: an object
// without a DeltaEmitter (queue) still delta-compacts once its state
// outgrows the op window, via verbatim op-replay deltas, and recovery
// refolds them. While the state is still small the oversize guard must
// keep collapsing to bases instead of writing deltas larger than a
// snapshot.
func TestDeltaFallbackOpReplay(t *testing.T) {
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.QueueSpec{}, Config{
		NProcs: 1, LogCapacity: 256, DeltaSnapshots: true, CompactEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := in.Handle(0)
	for i := 0; i < 64; i++ {
		if _, _, err := h.Update(objects.QueueEnq, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	st := in.CompactionStats()
	if st.Bases == 0 {
		t.Fatalf("small-state cuts should have collapsed to bases: %+v", st)
	}
	if st.Deltas == 0 {
		t.Fatalf("op-replay fallback never cut a delta: %+v", st)
	}
	pool.Crash(pmem.DropAll)
	in2, _, err := Recover(pool, objects.QueueSpec{}, Config{DeltaSnapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	h2 := in2.Handle(0)
	for i := 0; i < 64; i++ {
		got, _, err := h2.Update(objects.QueueDeq)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i+1) {
			t.Fatalf("dequeue %d: got %d", i, got)
		}
	}
}

// TestChainRegionsRecycledAcrossCrashes pins that recovery restores the
// delta-chain region bookkeeping: the live chain's region capacities
// and the free list of superseded chain regions. Before, recovery
// rebuilt the live chain with no capacity and an empty free list, so
// every crash/recover cycle of this workload leaked about 110 lines of
// chain regions. With the object's state bounded, allocation must level
// off after warm-up (a small tolerance allows one region's growth).
func TestChainRegionsRecycledAcrossCrashes(t *testing.T) {
	cfg := Config{NProcs: 2, LogCapacity: 256, DeltaSnapshots: true, CompactEvery: 8, MaxDeltaChain: 4}
	pool := pmem.New(4<<20, nil)
	in, err := New(pool, objects.MapSpec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, warm = 120, 20
	var atWarm uint64
	for c := 0; c < cycles; c++ {
		for i := 0; i < 64; i++ {
			if _, _, err := in.Handle(i%2).Update(objects.MapPut, uint64(i%16), uint64(c*64+i)); err != nil {
				t.Fatalf("cycle %d update %d: %v", c, i, err)
			}
		}
		pool.Crash(pmem.DropAll)
		if in, _, err = Recover(pool, objects.MapSpec{}, cfg); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c == warm {
			atWarm = pool.AllocatedLines()
		}
	}
	if grew := pool.AllocatedLines() - atWarm; grew > 64 {
		t.Fatalf("allocated lines grew by %d over %d crash/recover cycles after warm-up (%d -> %d): chain regions leak",
			grew, cycles-warm-1, atWarm, pool.AllocatedLines())
	}
}
