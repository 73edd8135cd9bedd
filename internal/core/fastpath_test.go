package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// pointCounter is a gate that counts steps per point name.
type pointCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *pointCounter) Step(pid int, point string) {
	p.mu.Lock()
	p.n[point]++
	p.mu.Unlock()
}

func (p *pointCounter) get(point string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[point]
}

// TestReadFastPathSkipsWalk pins the mechanism itself: once a read has
// validated the view against the current epoch, further reads touch no
// trace node — zero "trace.scan" and "trace.read-tail" steps — until an
// update publishes a new node, which invalidates exactly once.
func TestReadFastPathSkipsWalk(t *testing.T) {
	gate := &pointCounter{n: map[string]int{}}
	pool := pmem.New(1<<22, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, Gate: gate, LogCapacity: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := in.Handle(0), in.Handle(1)
	if _, _, err := h0.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	h0.Read(objects.CounterGet) // validates the view against the epoch
	scans, tails := gate.get("trace.scan"), gate.get("trace.read-tail")
	for i := 0; i < 100; i++ {
		if got := h0.Read(objects.CounterGet); got != 1 {
			t.Fatalf("read %d, want 1", got)
		}
	}
	if s, tl := gate.get("trace.scan"), gate.get("trace.read-tail"); s != scans || tl != tails {
		t.Fatalf("epoch-valid reads walked the trace: scans %d->%d, tail reads %d->%d", scans, s, tails, tl)
	}
	// A foreign update bumps the epoch: the next read must walk (and
	// observe the new value), the ones after it must not.
	if _, _, err := h1.Update(objects.CounterInc); err != nil {
		t.Fatal(err)
	}
	if got := h0.Read(objects.CounterGet); got != 2 {
		t.Fatalf("read %d after foreign update, want 2", got)
	}
	scans, tails = gate.get("trace.scan"), gate.get("trace.read-tail")
	for i := 0; i < 100; i++ {
		h0.Read(objects.CounterGet)
	}
	if s, tl := gate.get("trace.scan"), gate.get("trace.read-tail"); s != scans || tl != tails {
		t.Fatalf("revalidated reads walked the trace: scans %d->%d, tail reads %d->%d", scans, s, tails, tl)
	}
}

// TestReadFastPathEquivalence replays identical single-process op
// streams against a fast-path-on and a fast-path-off instance for every
// shipped object: every return value must match — the fast path is an
// optimization, never a semantic.
func TestReadFastPathEquivalence(t *testing.T) {
	for _, sp := range objects.All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			gen := workload.NewGenerator(sp)
			steps := gen.Stream(77, 400, 50)
			var rets [2][]uint64
			for leg, fast := range map[int]bool{0: false, 1: true} {
				pool := pmem.New(1<<24, nil)
				in, err := New(pool, sp, Config{
					NProcs: 1, LocalViews: true, ReadFastPath: fast,
					CompactEvery: 16, LogCapacity: 2048,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := in.Handle(0)
				for _, st := range steps {
					if st.IsUpdate {
						ret, _, err := h.Update(st.Code, st.Args...)
						if err != nil {
							t.Fatal(err)
						}
						rets[leg] = append(rets[leg], ret)
					} else {
						rets[leg] = append(rets[leg], h.Read(st.Code, st.Args...))
					}
				}
			}
			for i := range rets[0] {
				if rets[0][i] != rets[1][i] {
					t.Fatalf("step %d: fast-path-off returned %d, on returned %d", i, rets[0][i], rets[1][i])
				}
			}
		})
	}
}

// TestReadFastPathLaggingReaderUnderCompaction drives a lagging reader
// against a compacting writer deterministically: the reader's rare
// reads land far behind a writer that has cut the trace several times,
// so each one walks to the latest available node, restoring from a
// base where the walk meets one, and must agree with the reference
// value. The epoch it records must then serve the next read unchanged.
func TestReadFastPathLaggingReaderUnderCompaction(t *testing.T) {
	pool := pmem.New(1<<24, nil)
	in, err := New(pool, objects.CounterSpec{}, Config{
		NProcs: 2, ReadFastPath: true, CompactEvery: 16, LogCapacity: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, r := in.Handle(0), in.Handle(1)
	rng := rand.New(rand.NewSource(5))
	var done uint64
	for round := 0; round < 40; round++ {
		burst := 40 + rng.Intn(120)
		for i := 0; i < burst; i++ {
			if _, _, err := w.Update(objects.CounterInc); err != nil {
				t.Fatal(err)
			}
			done++
		}
		if got := r.Read(objects.CounterGet); got != done {
			t.Fatalf("round %d: lagging reader saw %d, want %d", round, got, done)
		}
		if got := r.Read(objects.CounterGet); got != done {
			t.Fatalf("round %d: epoch-hit read saw %d, want %d", round, got, done)
		}
	}
}

// TestReadFastPathAllocFree pins the allocation cost of the epoch
// check at ZERO: an identical update/read cycle allocates the same
// with the fast path off and on (each update allocates exactly its
// trace node here, compaction being off), and a read served by the
// epoch check allocates nothing at all.
func TestReadFastPathAllocFree(t *testing.T) {
	cycle := func(fast bool) (cyc, hit float64) {
		pool := pmem.New(1<<24, nil)
		in, err := New(pool, objects.BankSpec{}, Config{
			NProcs: 2, LocalViews: true, ReadFastPath: fast, LogCapacity: 1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		w, r := in.Handle(0), in.Handle(1)
		step := func() {
			for i := 0; i < 40; i++ {
				if _, _, err := w.Update(objects.BankDeposit, 1+uint64(i%4), 5); err != nil {
					t.Fatal(err)
				}
			}
			r.Read(objects.BankTotal)
		}
		step() // warm-up: views and buffers all grown
		step()
		cyc = testing.AllocsPerRun(50, step)
		hit = testing.AllocsPerRun(100, func() { r.Read(objects.BankTotal) })
		return cyc, hit
	}
	off, _ := cycle(false)
	on, hit := cycle(true)
	if on != off {
		t.Fatalf("fast-path cycle allocates %.1f/run vs %.1f/run with the fast path off", on, off)
	}
	if hit != 0 {
		t.Fatalf("epoch-hit read allocates %.1f/run, want 0", hit)
	}
	t.Logf("allocs/cycle: off=%.1f on=%.1f", off, on)
}

// TestReadFastPathSoak races epoch-checked readers against a compacting
// writer under real concurrency (run it with -race). The object is the
// bank, whose transfers conserve the total balance, so any read that
// mixes a stale epoch with a newer view, or a view torn by the
// writer's compaction recycling trace nodes under a walk, shows up as
// a non-conserved total. A handle that sat out the whole run must
// then read the right total on its first read.
func TestReadFastPathSoak(t *testing.T) {
	writes := 24_000
	if testing.Short() {
		writes = 6_000
	}
	const nprocs = 8 // pid 0 writes, 1..6 read, 7 stays cold
	const accounts = 8
	const perAccount = 1_000
	const total = accounts * perAccount
	pool := pmem.New(1<<26, nil)
	in, err := New(pool, objects.BankSpec{}, Config{
		NProcs: nprocs, ReadFastPath: true, CompactEvery: 48, LogCapacity: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	h0 := in.Handle(0)
	for a := uint64(1); a <= accounts; a++ {
		if _, _, err := h0.Update(objects.BankDeposit, a, perAccount); err != nil {
			t.Fatal(err)
		}
	}

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		rng := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < writes; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			from := 1 + rng%accounts
			to := 1 + (rng>>8)%accounts
			amt := 1 + (rng>>16)%32
			if _, _, err := h0.Update(objects.BankTransfer, from, to, amt); err != nil {
				panic(err)
			}
		}
	}()
	for pid := 1; pid <= 6; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			i := 0
			for !writerDone.Load() {
				if got := h.Read(objects.BankTotal); got != total {
					t.Errorf("p%d: torn view: total %d != %d", pid, got, total)
					return
				}
				i++
				if i%4 == 0 {
					// Let the writer race ahead so this reader's next
					// walk spans several compaction cuts.
					time.Sleep(200 * time.Microsecond)
				}
			}
			if got := h.Read(objects.BankTotal); got != total {
				t.Errorf("p%d: final total %d != %d", pid, got, total)
			}
		}(pid)
	}
	wg.Wait()

	cold := in.Handle(7)
	if got := cold.Read(objects.BankTotal); got != total {
		t.Fatalf("cold handle: total %d != %d", got, total)
	}
}
