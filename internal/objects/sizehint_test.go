package objects

import (
	"testing"

	"repro/internal/spec"
)

// TestSizeHint checks every shipped state's size hint: always positive
// (0 means "unknown" to spec.SizeHint), O(1)-cheap by construction, and
// growing with the state. The hint counts the in-memory representation,
// not the snapshot wire format, so the comparison is order-of-magnitude,
// not equality.
func TestSizeHint(t *testing.T) {
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name(), func(t *testing.T) {
			st := sp.New()
			empty := spec.SizeHint(st)
			if empty <= 0 {
				t.Fatalf("empty %s hints %d, want > 0", sp.Name(), empty)
			}
			gen := fillState(t, sp, st, 256)
			grown := spec.SizeHint(st)
			if gen > 0 && grown < empty {
				t.Fatalf("%s hint shrank: empty %d, after %d updates %d",
					sp.Name(), empty, gen, grown)
			}
			// Word-sized states (counter, register) legitimately stay
			// flat; anything whose snapshot grew must hint bigger too.
			if snap := len(st.Snapshot()); snap > 64 && grown <= empty {
				t.Fatalf("%s hint did not grow: empty %d, after %d updates %d (snapshot %d words)",
					sp.Name(), empty, gen, grown, snap)
			}
			if snap := len(st.Snapshot()); grown > 0 && snap > 0 {
				if grown > 64*snap+64 || snap > 64*grown+64 {
					t.Fatalf("%s hint %d wildly off snapshot %d words", sp.Name(), grown, snap)
				}
			}
		})
	}
}

// fillState applies n growth-shaped updates, returning how many
// applied (objects without a growing update apply none).
func fillState(t *testing.T, sp spec.Spec, st spec.State, n int) int {
	t.Helper()
	d, ok := sp.(Describer)
	if !ok {
		t.Fatalf("%s does not describe its ops", sp.Name())
	}
	applied := 0
	for _, oi := range d.Ops() {
		if oi.Kind != KindUpdate {
			continue
		}
		for i := 1; i <= n; i++ {
			op := spec.Op{Code: oi.Code}
			for a := 0; a < oi.Arity && a < 3; a++ {
				op.Args[a] = uint64(i*7 + a)
			}
			st.Apply(op)
			applied++
		}
		break // one growing opcode is enough
	}
	return applied
}
