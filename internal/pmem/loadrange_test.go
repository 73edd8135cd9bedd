package pmem

import (
	"strings"
	"testing"
)

// loadRangeFixture builds a pool whose 5-line region mixes resident and
// non-resident lines: every word is durable with value durable(i), then
// lines 1 and 3 are faulted back in by volatile stores of cached(i) to
// some of their words (word 0 of line 1; all of line 3), so the cache
// and the image disagree exactly there.
func loadRangeFixture(t *testing.T) (*Pool, Addr, int) {
	t.Helper()
	const lines = 5
	n := lines * LineWords
	p := New(1<<16, nil)
	base := p.MustAlloc(n * WordSize)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = durable(i)
	}
	p.StoreRange(2, base, vals)
	p.Persist(2, base, n*WordSize)
	p.Crash(DropAll) // nothing resident
	p.Store(2, base+Addr(LineWords*WordSize), cached(LineWords))
	for i := 3 * LineWords; i < 4*LineWords; i++ {
		p.Store(2, base+Addr(i*WordSize), cached(i))
	}
	p.ResetStats()
	return p, base, n
}

func durable(i int) uint64 { return uint64(i)*0x9e3779b9 + 1 }
func cached(i int) uint64  { return uint64(i)<<40 | 0xcafe }

// loadRangeCases are (first word, words) ranges over the fixture: one
// word, single lines (resident, non-resident, partial), and runs that
// cross one or more line boundaries from resident into non-resident
// lines and back, with ragged ends.
var loadRangeCases = [][2]int{
	{0, 1}, {3, 1}, {8, 1}, {9, 1}, {24, 8}, {16, 8}, {10, 4},
	{6, 4}, {7, 10}, {0, 40}, {5, 30}, {23, 2}, {31, 9}, {12, 20},
}

// TestLoadRangeMatchesWordLoads requires LoadRange to return exactly
// what the equivalent word Loads return — the cached copy for resident
// lines, the image for the rest — and to count the same Stats.Loads
// (the stat still counts words; only the bump granularity changed).
func TestLoadRangeMatchesWordLoads(t *testing.T) {
	p, base, _ := loadRangeFixture(t)
	for _, c := range loadRangeCases {
		addr := base + Addr(c[0]*WordSize)
		want := make([]uint64, c[1])
		before := p.StatsOf(1).Loads
		for i := range want {
			want[i] = p.Load(1, addr+Addr(i*WordSize))
		}
		wordLoads := p.StatsOf(1).Loads - before
		got := make([]uint64, c[1])
		before = p.StatsOf(1).Loads
		p.LoadRange(1, addr, got)
		rangeLoads := p.StatsOf(1).Loads - before
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range %v word %d: LoadRange %#x, Load %#x", c, i, got[i], want[i])
			}
		}
		if rangeLoads != wordLoads || rangeLoads != uint64(c[1]) {
			t.Fatalf("range %v: Loads stat %d ranged, %d word loads, want %d",
				c, rangeLoads, wordLoads, c[1])
		}
	}
	// The fixture's disagreement is real: a resident word reads its
	// cached value, not the image's.
	var w [1]uint64
	p.LoadRange(1, base+Addr(LineWords*WordSize), w[:])
	if w[0] != cached(LineWords) {
		t.Fatalf("resident word read %#x, want the cached %#x", w[0], cached(LineWords))
	}
}

// TestLoadRangeOneGateStepPerLine pins the cost model: a ranged load
// over n lines hits the gate once per line, not once per word, and a
// word Load is one step.
func TestLoadRangeOneGateStepPerLine(t *testing.T) {
	g := &countingGate{points: map[string]int{}}
	p, base, _ := loadRangeFixture(t)
	p.SetGate(g)
	p.LoadRange(1, base, make([]uint64, 3*LineWords))
	if got := g.points["pmem.load"]; got != 3 {
		t.Fatalf("aligned 3-line LoadRange: %d gate steps, want 3", got)
	}
	delete(g.points, "pmem.load")
	// Unaligned start: 2 words of the first line, one full line, then
	// 1 word — three lines touched.
	p.LoadRange(1, base+Addr((LineWords-2)*WordSize), make([]uint64, LineWords+3))
	if got := g.points["pmem.load"]; got != 3 {
		t.Fatalf("ragged 3-line LoadRange: %d gate steps, want 3", got)
	}
	delete(g.points, "pmem.load")
	p.Load(1, base)
	p.LoadRange(1, base, nil)
	if got := g.points["pmem.load"]; got != 1 {
		t.Fatalf("one Load plus an empty LoadRange: %d gate steps, want 1", got)
	}
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", name)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message containing %q", name, r, want)
		}
	}()
	f()
}

// TestLoadRangeRejectsOutOfBounds: out-of-bounds and unaligned ranges
// panic the way the word Load does, and loadLine keeps the single-line
// contract StoreLine has.
func TestLoadRangeRejectsOutOfBounds(t *testing.T) {
	p := New(1<<16, nil)
	end := Addr(p.Size())
	mustPanic(t, "Load past the end", "out of bounds", func() { p.Load(1, end) })
	mustPanic(t, "LoadRange past the end", "out of bounds", func() {
		p.LoadRange(1, end, make([]uint64, 1))
	})
	mustPanic(t, "LoadRange running off the end", "out of bounds", func() {
		p.LoadRange(1, end-2*WordSize, make([]uint64, 3))
	})
	mustPanic(t, "unaligned LoadRange", "unaligned", func() {
		p.LoadRange(1, rootBytes+3, make([]uint64, 2))
	})
	mustPanic(t, "line-crossing loadLine", "crosses a line boundary", func() {
		p.loadLine(1, Addr(rootBytes+(LineWords-1)*WordSize), make([]uint64, 2))
	})
	mustPanic(t, "LoadRange with a bad pid", "pid", func() {
		p.LoadRange(-1, rootBytes, make([]uint64, 1))
	})
}

// TestDurableRangeMatchesDurableWord: the scrubber's range read sees
// the durable image (never the resident copies the fixture dirtied),
// equals word-at-a-time DurableWord, takes no gate steps, bumps no
// statistics and rejects out-of-bounds ranges like LoadRange.
func TestDurableRangeMatchesDurableWord(t *testing.T) {
	g := &countingGate{points: map[string]int{}}
	p, base, n := loadRangeFixture(t)
	p.SetGate(g)
	for _, c := range loadRangeCases {
		addr := base + Addr(c[0]*WordSize)
		got := make([]uint64, c[1])
		p.DurableRange(addr, got)
		for i := range got {
			if want := p.DurableWord(addr + Addr(i*WordSize)); got[i] != want || want != durable(c[0]+i) {
				t.Fatalf("range %v word %d: DurableRange %#x, DurableWord %#x, image %#x",
					c, i, got[i], want, durable(c[0]+i))
			}
		}
	}
	p.DurableRange(base, make([]uint64, n))
	if len(g.points) != 0 {
		t.Fatalf("durable reads took gate steps: %v", g.points)
	}
	if s := p.TotalStats(); s != (Stats{}) {
		t.Fatalf("durable reads bumped statistics: %v", s)
	}
	end := Addr(p.Size())
	mustPanic(t, "DurableWord past the end", "out of bounds", func() { p.DurableWord(end) })
	mustPanic(t, "DurableRange running off the end", "out of bounds", func() {
		p.DurableRange(end-WordSize, make([]uint64, 2))
	})
	mustPanic(t, "unaligned DurableRange", "unaligned", func() {
		p.DurableRange(rootBytes+1, make([]uint64, 1))
	})
}
