package main

import (
	"encoding/json"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// fakeRun drives interleave over a comparison with the named legs and
// no instance behind them: leg l's r-th measurement returns
// ops[l][r] ops/sec and pf[l][r] pfences/update (1 for missing
// entries), and every call is logged in order.
func fakeRun(gomax, repeats int, ops, pf map[string][]float64, names ...string) ([]point, []string, error) {
	c := comparison{suite: "fake", mix: "ycsb-a", procs: 2, gomax: gomax}
	for _, n := range names {
		c.legs = append(c.legs, leg{name: n})
	}
	var calls []string
	seen := map[string]int{}
	points, err := interleave(c, repeats, func(_ comparison, l leg) (sample, error) {
		calls = append(calls, l.name)
		r := seen[l.name]
		seen[l.name]++
		if l.name == "fail" {
			return sample{}, errors.New("boom")
		}
		s := sample{OpsPerSec: 1, PFencesPerUpd: 1}
		if r < len(ops[l.name]) {
			s = sample{OpsPerSec: ops[l.name][r], PFencesPerUpd: pf[l.name][r]}
		}
		if g := runtime.GOMAXPROCS(0); g != gomax {
			return s, errors.New("GOMAXPROCS not the comparison's")
		}
		return s, nil
	})
	return points, calls, err
}

// TestInterleaveRotatesLegOrder: every repetition runs every leg once,
// starting one leg later than the repetition before, so no leg always
// runs first; GOMAXPROCS is the comparison's during the run and
// restored after it.
func TestInterleaveRotatesLegOrder(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	_, calls, err := fakeRun(1, 4, nil, nil, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(calls, ""), "abcbcacababc"; got != want {
		t.Fatalf("leg order %q, want %q", got, want)
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Fatalf("GOMAXPROCS %d after the run, want %d restored", got, before)
	}
}

// TestInterleaveMediansAndRatios: per leg, the median ops/sec and
// pfences/update over the repetitions, and the median of the
// per-repetition ratios to the reference leg, which here differs from
// the ratio of the medians (330/200).
func TestInterleaveMediansAndRatios(t *testing.T) {
	ops := map[string][]float64{"ref": {100, 300, 200}, "fast": {150, 330, 500}}
	pf := map[string][]float64{"ref": {1, 1.2, 1.1}, "fast": {0.9, 1.0, 1.3}}
	points, _, err := fakeRun(runtime.GOMAXPROCS(0), 3, ops, pf, "ref", "fast")
	if err != nil {
		t.Fatal(err)
	}
	want := []point{
		{Leg: "ref", Medians: sample{200, 1.1}, Ratio: 1},
		{Leg: "fast", Medians: sample{330, 1.0}, Ratio: 1.5},
	}
	if len(points) != len(want) {
		t.Fatalf("%d points, want one per leg", len(points))
	}
	for i, w := range want {
		p := points[i]
		if p.Leg != w.Leg || p.RefLeg != "ref" || p.Medians != w.Medians || p.Ratio != w.Ratio {
			t.Errorf("point %d: %+v, want leg %s ref ref medians %+v ratio %v", i, p, w.Leg, w.Medians, w.Ratio)
		}
		if len(p.Samples) != 3 || p.Samples[2].OpsPerSec != ops[w.Leg][2] {
			t.Errorf("%s: samples %+v, want the 3 measured, in order", w.Leg, p.Samples)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count %v, want 2.5", got)
	}
}

// TestInterleaveLegErrorAborts: a failing leg stops the comparison at
// once, and the error names the leg.
func TestInterleaveLegErrorAborts(t *testing.T) {
	points, calls, err := fakeRun(runtime.GOMAXPROCS(0), 3, nil, nil, "a", "fail", "b")
	if err == nil || !strings.Contains(err.Error(), "leg fail: boom") {
		t.Fatalf("err %v, want boom naming the leg", err)
	}
	if points != nil || strings.Join(calls, ",") != "a,fail" {
		t.Fatalf("calls %v and points %v, want the run to stop at the failing leg", calls, points)
	}
}

// TestEtComparisonsCoverage pins the sweep: fast path off/on at every
// mix and process count, full vs delta cuts on YCSB-D (fast path on and
// off) and YCSB-A, the 1/2/4-shard ladder at each GOMAXPROCS.
func TestEtComparisonsCoverage(t *testing.T) {
	count := map[string]int{}
	for _, c := range etComparisons() {
		key := c.suite
		for i, l := range c.legs {
			key += " " + l.name
			if c.suite == "shards" && (l.shards != mcShardSet[i] || !l.cfg.ReadFastPath) ||
				c.suite == "fastpath" && l.cfg.ReadFastPath != (i == 1) ||
				strings.HasPrefix(c.suite, "delta") && (l.cfg.DeltaSnapshots != (i == 1) || l.cfg.ReadFastPath != (c.suite == "delta")) {
				t.Errorf("%s %s/%d/g%d: leg %d %+v", c.suite, c.mix, c.procs, c.gomax, i, l)
			}
		}
		count[key]++
	}
	want := map[string]int{
		"fastpath fastpath_off fastpath_on": len(etMixes) * len(etProcs),
		"delta full delta":                  2 * len(deltaProcs),
		"delta_fastpath_off full delta":     len(deltaProcs),
		"shards shards_1 shards_2 shards_4": len(mcGomax) * len(mcMixes),
	}
	if len(count) != len(want) {
		t.Fatalf("comparisons %v, want %v", count, want)
	}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%q: %d comparisons, want %d", k, count[k], n)
		}
	}
}

// TestArtifactSchema: the encoded artifact is schema v10 with exactly
// the measurement keys and one sample per repetition in every point;
// none of the history tables, notes or latency block of earlier
// schemas.
func TestArtifactSchema(t *testing.T) {
	points, _, err := fakeRun(runtime.GOMAXPROCS(0), etRepeats, nil, nil, "off", "on")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(newArtifact(1000, points, []snapfootPoint{{}}, footprintTable()))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string
		Points []struct{ Samples []sample }
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil || json.Unmarshal(data, &doc) != nil {
		t.Fatalf("artifact does not decode: %v", err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := "generated_unix go_max_procs log_footprint points repeats schema snapshot_footprint total_ops_per_point"
	sort.Strings(got)
	if g := strings.Join(got, " "); g != want {
		t.Errorf("artifact keys %q, want exactly %q", g, want)
	}
	if doc.Schema != "bench_throughput/v10" || len(doc.Points) != 2 {
		t.Fatalf("schema %q with %d points, want bench_throughput/v10 with 2", doc.Schema, len(doc.Points))
	}
	for i, p := range doc.Points {
		if len(p.Samples) != etRepeats {
			t.Errorf("point %d: %d samples, want one per repetition (%d)", i, len(p.Samples), etRepeats)
		}
	}
}
