package plog

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/spec"
)

// Native fuzz targets for the recovery decoders: Open + Records and
// ResolveChain, over a small two-tier log holding a delta chain, with
// fuzzer-chosen durable word overwrites. The invariant is reject or
// verify, never panic: a decoder either refuses the damaged image
// (ErrCorrupt, a shorter record prefix, ErrChain) or returns records
// and chains that satisfy every structural rule the log writes by.
//
// CI runs each target for a short -fuzztime; `go test` replays the
// seeds below and the corpus under testdata/fuzz/.

// fuzzLogImage builds the fuzzed image: an 8-slot, 2-op log with a
// 1-op inline budget (so 2-op records spill to the overflow ring),
// holding inline and spilled ops records, a base + two-delta chain
// whose base record was truncated away (the chain reaches it only
// through a back-reference), and two snapshots in the ping-pong
// regions, then crashed with nothing volatile surviving. It returns
// the pool, the log and the span of words overwrites land in
// (everything allocated past the root table).
func fuzzLogImage(tb testing.TB) (*pmem.Pool, *Log, uint64, uint64) {
	tb.Helper()
	pool := pmem.New(1<<15, nil)
	l, err := CreateInline(pool, 0, 8, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	must := func(_ uint64, err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	ops := func(n int, salt uint64) []spec.Op {
		out := make([]spec.Op, n)
		for i := range out {
			out[i] = op(salt, salt<<8|uint64(i+1))
		}
		return out
	}
	must(l.Append(ops(1, 1), 1))
	must(l.AppendChainBase(chainPayload(2), 2))
	must(l.AppendDelta([]uint64{7, 8, 9}, 3))
	if err := l.Truncate(2); err != nil {
		tb.Fatal(err)
	}
	must(l.AppendDelta([]uint64{10, 11}, 4))
	must(l.AppendSnapshot([]uint64{1, 2, 3, 4, 5}, 4))
	must(l.Append(ops(2, 4), 6))
	must(l.AppendSnapshot([]uint64{6, 7, 8}, 6))
	must(l.Append(ops(1, 5), 7))
	pool.Crash(pmem.DropAll)
	lo := uint64(pmem.RootSlots)
	return pool, l, lo, pool.AllocatedLines()*pmem.LineWords - lo
}

// fuzzOverwrite is the size of one overwrite in fuzz input: a mode
// byte (bit 0: xor instead of set; bit 1: re-seal the image afterwards,
// see resealImage), a little-endian word offset into the span, and a
// little-endian value.
const fuzzOverwrite = 1 + 2 + 8

// applyOverwrites durably applies the overwrites data encodes to the
// words [lo, lo+span) of l's pool, re-seals the image if any overwrite
// asks for it, and crashes the pool, so every decoder reads the damaged
// image from NVM. A trailing partial overwrite is ignored.
func applyOverwrites(l *Log, lo, span uint64, data []byte) {
	pool := l.pool
	reseal := false
	for ; len(data) >= fuzzOverwrite; data = data[fuzzOverwrite:] {
		off := lo + uint64(binary.LittleEndian.Uint16(data[1:]))%span
		addr := pmem.Addr(off * pmem.WordSize)
		v := binary.LittleEndian.Uint64(data[3:])
		if data[0]&1 == 1 {
			v ^= pool.DurableWord(addr)
		}
		reseal = reseal || data[0]&2 != 0
		corrupt(pool, addr, v)
	}
	if reseal {
		resealImage(l)
	}
	pool.Crash(pmem.DropAll)
}

// resealImage recomputes, over the damaged image, every checksum l's
// writer would have written — chain bodies (each delta's predecessor
// first, its sum stored in the delta's frame), snapshot bodies and
// overflow tails, then the record slots and the header — so that the
// overwrites reach the structural checks behind the checksums: the
// image holds forged records, not torn ones. The slot geometry is the
// fixture's own; pointers and lengths come from the damaged words and
// are followed only inside the pool.
func resealImage(l *Log) {
	pool := l.pool
	word := func(a pmem.Addr) uint64 { return pool.DurableWord(a) }
	at := func(a pmem.Addr, i int) pmem.Addr { return a + pmem.Addr(i*pmem.WordSize) }
	inPool := func(a pmem.Addr, n uint64) bool {
		return n <= uint64(pool.Size()/pmem.WordSize) && pool.Contains(a, int(n)*pmem.WordSize)
	}
	sumOf := func(a pmem.Addr, n uint64) uint64 {
		if !inPool(a, n) {
			return 0
		}
		w := make([]uint64, n)
		pool.DurableRange(a, w)
		return checksum(w)
	}
	var sealBody func(a pmem.Addr, n uint64, depth int) uint64
	sealBody = func(a pmem.Addr, n uint64, depth int) uint64 {
		if n > cbHdrWords && inPool(a, n) && word(at(a, cbKind)) == chainBodyDelta && depth < 8 {
			prev := sealBody(pmem.Addr(word(at(a, cbPrevAddr))), word(at(a, cbPrevWords)), depth+1)
			corrupt(pool, at(a, cbPrevSum), prev)
		}
		return sumOf(a, n)
	}
	for i := 0; i < l.capacity; i++ {
		a := at(l.base, hdrWords+i*l.slotW)
		kn := word(at(a, 1))
		var plen int
		switch kind, field := int(kn>>32), int(kn&0xffffffff); kind {
		case KindOps:
			plen = field
		case kindOpsOvf:
			plen = l.inlineOps*spec.OpWords + ovfDescWords
			d := at(a, 3+l.inlineOps*spec.OpWords)
			if off, n := word(d), word(at(d, 1)); off <= uint64(l.ovfWords) && n <= uint64(l.ovfWords)-off {
				corrupt(pool, at(d, 2), sumOf(at(l.ovfBase, int(off)), n))
			}
		case KindSnapshot, KindDelta:
			plen = 3
			body, n := pmem.Addr(word(at(a, 3))), word(at(a, 4))
			if kind == KindDelta {
				corrupt(pool, at(a, 5), sealBody(body, n, 0))
			} else {
				corrupt(pool, at(a, 5), sumOf(body, n))
			}
		default:
			continue
		}
		if 3+plen+1 <= l.slotW {
			corrupt(pool, at(a, 3+plen), sumOf(a, uint64(3+plen)))
		}
	}
	corrupt(pool, at(l.base, hdrSum), sumOf(l.base, hdrSum))
}

// resealed sets the re-seal bit on an encoded overwrite.
func resealed(b []byte) []byte {
	b[0] |= 2
	return b
}

// overwrite encodes one overwrite in the fuzz input format.
func overwrite(xor bool, off uint16, v uint64) []byte {
	b := make([]byte, fuzzOverwrite)
	if xor {
		b[0] = 1
	}
	binary.LittleEndian.PutUint16(b[1:], off)
	binary.LittleEndian.PutUint64(b[3:], v)
	return b
}

// addFuzzSeeds seeds a target with no damage and with overwrites aimed
// at the header, the first slots, the overflow ring and the chain
// bodies (offsets are relative to the span, which starts at the log's
// header line).
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	for _, s := range [][]byte{
		overwrite(true, hdrHeadSeq, 1),
		overwrite(false, hdrCapacity, 1<<40),
		overwrite(true, hdrWords+1, 1<<32),                         // first slot's kind word
		overwrite(false, hdrWords, 5),                              // first slot's seq
		overwrite(true, hdrWords+3*16+3, 0xff),                     // a payload word
		overwrite(true, hdrWords+8*16, 1),                          // overflow ring
		overwrite(true, hdrWords+8*16+4*8+cbPrevAddr, 1<<6),        // a chain back-reference
		overwrite(false, hdrWords+8*16+4*8+cbNFree, 1<<20),         // a free-list count
		append(overwrite(true, 0, 1), overwrite(true, 9, 2)...),    // two at once
		resealed(overwrite(true, hdrWords+2*16+2, 1)),              // a forged delta execIdx
		resealed(overwrite(false, hdrWords+8*16+4*8+cbCap, 1<<62)), // a forged region capacity
	} {
		f.Add(s)
	}
}

// checkRecords verifies what Open returned against the rules the log
// writes by: a contiguous run of sequence numbers from HeadSeq+1,
// agreeing with Len and with a fresh Records scan, and every record
// structurally well-formed for its kind.
func checkRecords(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	if len(recs) != l.Len() {
		t.Fatalf("Open returned %d records, Len %d", len(recs), l.Len())
	}
	again := l.Records()
	if len(again) != len(recs) {
		t.Fatalf("Open returned %d records, Records %d", len(recs), len(again))
	}
	for i, r := range recs {
		if r.Seq != l.HeadSeq()+1+uint64(i) || again[i].Seq != r.Seq || again[i].ExecIdx != r.ExecIdx {
			t.Fatalf("record %d: seq %d (rescan %d), head %d", i, r.Seq, again[i].Seq, l.HeadSeq())
		}
		switch r.Kind {
		case KindOps:
			if len(r.Ops) == 0 || len(r.Ops) > l.MaxOps() || r.Overflow != (len(r.Ops) > l.InlineOps()) {
				t.Fatalf("seq %d: %d ops (inline %d, max %d, overflow %v)",
					r.Seq, len(r.Ops), l.InlineOps(), l.MaxOps(), r.Overflow)
			}
		case KindSnapshot:
		case KindDelta:
			if len(r.Body) < cbHdrWords+1 || r.Body[cbExec] != r.ExecIdx || payloadOff(r.Body) < 0 {
				t.Fatalf("seq %d: malformed chain body of %d words", r.Seq, len(r.Body))
			}
		default:
			t.Fatalf("seq %d: kind %d", r.Seq, r.Kind)
		}
	}
}

// checkRegions verifies the regions Open restored from the image for
// reuse — the ping-pong snapshot regions, the live chain's regions and
// the chain free list — all lie inside the pool: a later append writes
// a whole region's capacity without re-checking it.
func checkRegions(t *testing.T, l *Log) {
	t.Helper()
	words := uint64(l.pool.Size() / pmem.WordSize)
	inside := func(what string, a pmem.Addr, c int) {
		t.Helper()
		if c < 0 || uint64(c) > words || uint64(a)/pmem.WordSize > words-uint64(c) {
			t.Fatalf("restored %s region [%#x, +%d words) leaves the %d-word pool", what, uint64(a), c, words)
		}
	}
	for k := range l.snapRegion {
		if l.snapCap[k] > 0 {
			inside("snapshot", l.snapRegion[k], l.snapCap[k])
		}
	}
	for _, c := range l.chain {
		inside("chain", c.addr, c.cap)
	}
	for _, r := range l.chainPool {
		inside("free chain", r.addr, r.cap)
	}
}

// checkChain verifies a resolution that succeeded: base first, exactly
// one base, execution indices strictly increasing up to the record's.
func checkChain(t *testing.T, rec Record, elems []ChainElem) {
	t.Helper()
	if len(elems) == 0 || !elems[0].Base {
		t.Fatalf("seq %d: chain of %d links is not base-anchored", rec.Seq, len(elems))
	}
	for i, e := range elems {
		if i > 0 && (e.Base || e.ExecIdx <= elems[i-1].ExecIdx) {
			t.Fatalf("seq %d: link %d (exec %d, base %v) after exec %d",
				rec.Seq, i, e.ExecIdx, e.Base, elems[i-1].ExecIdx)
		}
	}
	if last := elems[len(elems)-1].ExecIdx; last != rec.ExecIdx {
		t.Fatalf("seq %d: chain head at %d, record at %d", rec.Seq, last, rec.ExecIdx)
	}
}

// FuzzOpen: Open + Records (and the salvage walk and scrubber that
// share the slot decoder) over a damaged image reject or verify.
func FuzzOpen(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pool, built, lo, span := fuzzLogImage(t)
		applyOverwrites(built, lo, span, data)
		l, recs, err := OpenRecords(pool, 1, built.Base())
		if err != nil {
			if l != nil || recs != nil {
				t.Fatalf("OpenRecords failed (%v) but returned a log", err)
			}
			return
		}
		checkRecords(t, l, recs)
		checkRegions(t, l)
		s := l.SalvageScan()
		if len(s.Live) != len(recs) {
			t.Fatalf("salvage prefix %d records, Open %d", len(s.Live), len(recs))
		}
		l.Scrub()
	})
}

// FuzzResolveChain: every chain record Open or the salvage walk finds
// either fails to resolve or resolves to a well-formed chain — and the
// resolution Open attached to its record agrees exactly with a fresh
// one read back from the image.
func FuzzResolveChain(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pool, built, lo, span := fuzzLogImage(t)
		applyOverwrites(built, lo, span, data)
		l, recs, err := OpenRecords(pool, 1, built.Base())
		if err != nil {
			return
		}
		fresh := l.Records()
		for i, rec := range recs {
			if rec.Kind != KindDelta {
				continue
			}
			elems, err := l.ResolveChain(rec)
			again, err2 := l.ResolveChain(fresh[i])
			if (err == nil) != (err2 == nil) {
				t.Fatalf("seq %d: Open's resolution err=%v, fresh err=%v", rec.Seq, err, err2)
			}
			if err != nil {
				continue
			}
			checkChain(t, rec, elems)
			if len(elems) != len(again) {
				t.Fatalf("seq %d: Open's chain %d links, fresh %d", rec.Seq, len(elems), len(again))
			}
			for j := range elems {
				if elems[j].ExecIdx != again[j].ExecIdx || !slices.Equal(elems[j].Payload, again[j].Payload) {
					t.Fatalf("seq %d link %d: Open's resolution differs from a fresh one", rec.Seq, j)
				}
			}
		}
		s := l.SalvageScan()
		for _, rec := range append(s.Live, s.Orphans...) {
			if rec.Kind != KindDelta {
				continue
			}
			if elems, err := l.ResolveChain(rec); err == nil {
				checkChain(t, rec, elems)
			}
		}
	})
}
