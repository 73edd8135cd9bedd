package main

// et: the parallel throughput suite of the simulator substrate (it
// mirrors BenchmarkThroughput*). Every comparison is one point (a mix, a
// process count, a GOMAXPROCS) measured under a list of legs; each
// repetition runs every leg once, starting from a different leg each
// time, so host drift lands on all legs alike and each leg's ratio to
// the reference leg compares runs from the same minute.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/spec"
	"repro/internal/workload"
	"repro/shard"
)

// jsonPath is the artifact `-exp et -json` writes.
const jsonPath = "BENCH_throughput.json"

// artifactSchema names the layout of throughputArtifact.
const artifactSchema = "bench_throughput/v10"

// etRepeats is the number of repetitions per comparison. Shared boxes
// have second-scale scheduling bursts that dwarf one 200k-op sample, so
// every leg is reported as its median over the repetitions.
const etRepeats = 3

var (
	// etProcs is the process sweep: up to the full pid space (MaxPids = 64).
	etProcs = []int{1, 2, 4, 8, 16, 32, 64}
	// etMixes are the counter mixes (100% and 50% increments) and the
	// YCSB mixes over a preloaded ordered map.
	etMixes = []string{"updates", "mixed50", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e"}
	// deltaProcs is the compaction sweep, a spread of etProcs.
	deltaProcs = []int{1, 4, 16, 64}
	// The shard sweep: mcProcs worker handles (the CI runner's 4 vCPUs,
	// so at GOMAXPROCS=4 every handle can run in parallel) at each
	// pinned GOMAXPROCS, over 1, 2 and 4 shards on one pool.
	mcProcs    = 4
	mcGomax    = []int{1, 2, 4}
	mcShardSet = []int{1, 2, 4}
	mcMixes    = []string{"ycsb-c", "ycsb-a"}
)

// leg is one arm of a comparison: a core.Config over one instance
// (shards 0) or over shards instances composed by repro/shard.
type leg struct {
	name   string
	cfg    core.Config
	shards int
}

// comparison is one point measured under several legs; legs[0] is the
// reference the other legs' ratios are taken against.
type comparison struct {
	suite string
	mix   string // "updates", "mixed50" (counter) or a workload.YCSBWorkload
	procs int
	gomax int
	legs  []leg
}

// sample is one leg's measurement in one repetition.
type sample struct {
	OpsPerSec     float64 `json:"ops_per_sec"`
	PFencesPerUpd float64 `json:"pfences_per_update"`
}

// point is the artifact entry of one leg of one comparison.
type point struct {
	Suite   string   `json:"suite"`
	Mix     string   `json:"mix"`
	Procs   int      `json:"procs"`
	Gomax   int      `json:"gomax"`
	Leg     string   `json:"leg"`
	RefLeg  string   `json:"ref_leg"`
	Samples []sample `json:"samples"` // one per repetition, in order
	Medians sample   `json:"medians"`
	// Ratio is the median over repetitions of this leg's ops/sec over
	// the reference leg's ops/sec in the same repetition.
	Ratio float64 `json:"ratio"`
}

// interleave runs c for repeats repetitions. Repetition r runs every leg
// once through measure, starting at leg r mod len(c.legs), so no leg
// always runs first. GOMAXPROCS is c.gomax throughout and is restored
// afterwards. The first error aborts the run.
func interleave(c comparison, repeats int, measure func(comparison, leg) (sample, error)) ([]point, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.gomax))
	samples := make([][]sample, len(c.legs))
	for r := 0; r < repeats; r++ {
		for k := range c.legs {
			i := (r + k) % len(c.legs)
			s, err := measure(c, c.legs[i])
			if err != nil {
				return nil, fmt.Errorf("%s %s/%d/g%d leg %s: %w", c.suite, c.mix, c.procs, c.gomax, c.legs[i].name, err)
			}
			samples[i] = append(samples[i], s)
		}
	}
	points := make([]point, len(c.legs))
	for i, l := range c.legs {
		ops, pf, ratio := make([]float64, repeats), make([]float64, repeats), make([]float64, repeats)
		for r, s := range samples[i] {
			ops[r], pf[r] = s.OpsPerSec, s.PFencesPerUpd
			ratio[r] = s.OpsPerSec / samples[0][r].OpsPerSec
		}
		points[i] = point{
			Suite: c.suite, Mix: c.mix, Procs: c.procs, Gomax: c.gomax,
			Leg: l.name, RefLeg: c.legs[0].name, Samples: samples[i],
			Medians: sample{OpsPerSec: median(ops), PFencesPerUpd: median(pf)},
			Ratio:   median(ratio),
		}
	}
	return points, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// etConfig sizes an instance for nprocs simulated processes with the
// policy BenchmarkThroughput* shares (workload.Throughput*), so both
// harnesses measure identical configurations.
func etConfig(nprocs int, fast bool) core.Config {
	return core.Config{
		NProcs:       nprocs,
		LocalViews:   true,
		ReadFastPath: fast,
		CompactEvery: workload.ThroughputCompactEvery(nprocs),
		LogCapacity:  workload.ThroughputLogCapacity(nprocs),
	}
}

// etComparisons lists the suite: the read fast path off and on over
// every mix and process count; what a compaction cut writes (full
// snapshots or base+delta chains, same cadence) on YCSB-D under both
// fast-path settings and on YCSB-A; and the shard ladder at each pinned
// GOMAXPROCS.
func etComparisons() []comparison {
	gomax := runtime.GOMAXPROCS(0)
	var cs []comparison
	for _, mix := range etMixes {
		for _, n := range etProcs {
			cs = append(cs, comparison{suite: "fastpath", mix: mix, procs: n, gomax: gomax, legs: []leg{
				{name: "fastpath_off", cfg: etConfig(n, false)},
				{name: "fastpath_on", cfg: etConfig(n, true)},
			}})
		}
	}
	for _, d := range []struct {
		suite, mix string
		fast       bool
	}{{"delta", "ycsb-d", true}, {"delta_fastpath_off", "ycsb-d", false}, {"delta", "ycsb-a", true}} {
		for _, n := range deltaProcs {
			full := etConfig(n, d.fast)
			delta := full
			delta.DeltaSnapshots = true
			cs = append(cs, comparison{suite: d.suite, mix: d.mix, procs: n, gomax: gomax,
				legs: []leg{{name: "full", cfg: full}, {name: "delta", cfg: delta}}})
		}
	}
	for _, g := range mcGomax {
		for _, mix := range mcMixes {
			c := comparison{suite: "shards", mix: mix, procs: mcProcs, gomax: g}
			for _, s := range mcShardSet {
				c.legs = append(c.legs, leg{name: fmt.Sprintf("shards_%d", s), cfg: etConfig(mcProcs, true), shards: s})
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// isCounter tells the counter mixes from the YCSB mixes.
func isCounter(mix string) bool { return mix == "updates" || mix == "mixed50" }

func etSpec(mix string) spec.Spec {
	if isCounter(mix) {
		return objects.CounterSpec{}
	}
	return objects.OrderedMapSpec{}
}

// etStreams returns mix's per-process streams of per steps and their
// total update count. The counter mixes share one stream: every
// process increments on the first 100 (updates) or 50 (mixed50) of
// each 100 steps and reads on the rest.
func etStreams(mix string, procs, per int) ([][]workload.Step, int) {
	if !isCounter(mix) {
		return workload.NewYCSB(workload.YCSBWorkload(mix)).Streams(procs, per)
	}
	pct := 100
	if mix == "mixed50" {
		pct = 50
	}
	steps := make([]workload.Step, per)
	updates := 0
	for i := range steps {
		steps[i] = workload.Step{Code: objects.CounterGet}
		if i%100 < pct {
			steps[i] = workload.Step{Code: objects.CounterInc, IsUpdate: true}
			updates++
		}
	}
	streams := make([][]workload.Step, procs)
	for pid := range streams {
		streams[pid] = steps
	}
	return streams, updates * procs
}

// measure builds a fresh instance for l on a fresh pool and drives c's
// mix on it with *etOpsFlag operations.
func measure(c comparison, l leg) (sample, error) {
	bytes := workload.ThroughputPoolBytes(c.procs)
	if l.shards > 0 {
		bytes = bytes*l.shards + 1<<22
	}
	pool := pmem.New(bytes, nil)
	var handle func(pid int) workload.Handle
	if l.shards == 0 {
		in, err := core.New(pool, etSpec(c.mix), l.cfg)
		if err != nil {
			return sample{}, err
		}
		handle = func(pid int) workload.Handle { return in.Handle(pid) }
	} else {
		in, err := shard.Open(pool, etSpec(c.mix), shard.Config{Shards: l.shards, Base: l.cfg})
		if err != nil {
			return sample{}, err
		}
		handle = func(pid int) workload.Handle { return in.Handle(pid) }
	}
	return drive(pool, handle, c.mix, c.procs, *etOpsFlag)
}

// drive loads a YCSB mix's dataset (as YCSB loads it before measuring),
// warms every handle up on the first 200 steps of its stream, then runs
// all streams in parallel and returns the timed sample. A read-only mix
// that fences is an error: reads must stay fence-free, through the
// shard router too.
func drive(pool *pmem.Pool, handle func(pid int) workload.Handle, mix string, procs, totalOps int) (sample, error) {
	streams, updates := etStreams(mix, procs, totalOps/procs)
	if !isCounter(mix) {
		if err := workload.NewYCSB(workload.YCSBWorkload(mix)).Preload(handle(0)); err != nil {
			return sample{}, err
		}
	}
	for pid, st := range streams {
		if err := workload.RunSteps(handle(pid), st[:min(200, len(st))]); err != nil {
			return sample{}, err
		}
	}
	pool.ResetStats()
	el, err := runStreams(handle, streams)
	if err != nil {
		return sample{}, err
	}
	s := sample{OpsPerSec: float64(procs*len(streams[0])) / el.Seconds()}
	pf := pool.TotalStats().PersistentFences
	if updates > 0 {
		s.PFencesPerUpd = float64(pf) / float64(updates)
	} else if pf > 0 {
		return s, fmt.Errorf("%s: %d persistent fences on a read-only mix", mix, pf)
	}
	return s, nil
}

// runStreams runs streams[pid] on handle(pid), one goroutine per
// process, and returns the wall time of the whole run.
func runStreams(handle func(pid int) workload.Handle, streams [][]workload.Step) (time.Duration, error) {
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for pid := range streams {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			errs[pid] = workload.RunSteps(handle(pid), streams[pid])
		}(pid)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// snapfootPoint records the write volume of one delta-chain YCSB-D run:
// words actually appended per compaction cut against the full-snapshot
// equivalent for the same cuts, with the final key count as the state
// size. Sweeping totalOps grows the state (YCSB-D mints fresh keys), so
// the series shows words/cut staying near-flat while the full-snapshot
// equivalent tracks the state — the sub-linearity the chains buy.
type snapfootPoint struct {
	Workload        string  `json:"workload"`
	Procs           int     `json:"procs"`
	TotalOps        int     `json:"total_ops"`
	FinalKeys       uint64  `json:"final_keys"`
	Bases           uint64  `json:"bases"`
	Deltas          uint64  `json:"deltas"`
	Collapses       uint64  `json:"collapses"`
	WordsPerCut     float64 `json:"snapshot_words_per_cut"`
	FullWordsPerCut float64 `json:"full_equiv_words_per_cut"`
	Ratio           float64 `json:"delta_over_full"`
}

// snapFootprint runs YCSB-D once on one process with delta chains on
// (no timing, so no repeats) and reports the per-cut write volume. The
// cadence is tighter than the suite's so dozens of cuts land per run
// and words/cut averages over real chains.
func snapFootprint(totalOps int) (snapfootPoint, error) {
	cfg := etConfig(1, true)
	cfg.DeltaSnapshots, cfg.CompactEvery = true, 256
	pool := pmem.New(workload.ThroughputPoolBytes(1), nil)
	in, err := core.New(pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		return snapfootPoint{}, err
	}
	handle := func(pid int) workload.Handle { return in.Handle(pid) }
	if _, err := drive(pool, handle, string(workload.YCSBD), 1, totalOps); err != nil {
		return snapfootPoint{}, err
	}
	st := in.CompactionStats()
	fp := snapfootPoint{
		Workload: string(workload.YCSBD), Procs: 1, TotalOps: totalOps,
		FinalKeys: in.Handle(0).Read(objects.OMapLen),
		Bases:     st.Bases, Deltas: st.Deltas, Collapses: st.Collapses,
	}
	if cuts := st.Bases + st.Deltas; cuts > 0 {
		fp.WordsPerCut = float64(st.SnapshotWords) / float64(cuts)
		fp.FullWordsPerCut = float64(st.FullEquivWords) / float64(cuts)
	}
	if fp.FullWordsPerCut > 0 {
		fp.Ratio = fp.WordsPerCut / fp.FullWordsPerCut
	}
	return fp, nil
}

// footprintPoint records the per-process log footprint of the two-tier
// slot layout against the retired single-tier layout, at the geometry
// the suite runs.
type footprintPoint struct {
	Procs           int     `json:"procs"`
	LogCapacity     int     `json:"log_capacity"`
	RegionBytes     int     `json:"region_bytes_two_tier"`
	SingleTierBytes int     `json:"region_bytes_single_tier"`
	Ratio           float64 `json:"single_over_two_tier"`
}

// footprintTable evaluates plog.RegionBytes at the suite's sweep points.
func footprintTable() []footprintPoint {
	var out []footprintPoint
	for _, procs := range []int{8, 16, 32, 64} {
		cap := workload.ThroughputLogCapacity(procs)
		two := plog.RegionBytes(cap, procs)
		one := plog.SingleTierRegionBytes(cap, procs)
		out = append(out, footprintPoint{
			Procs: procs, LogCapacity: cap,
			RegionBytes: two, SingleTierBytes: one,
			Ratio: float64(one) / float64(two),
		})
	}
	return out
}

// throughputArtifact is the BENCH_throughput.json document: this run's
// measurements only. Earlier sessions' numbers are narrated in
// EXPERIMENTS.md.
type throughputArtifact struct {
	Schema        string           `json:"schema"`
	GeneratedUnix int64            `json:"generated_unix"`
	GoMaxProcs    int              `json:"go_max_procs"`
	TotalOps      int              `json:"total_ops_per_point"`
	Repeats       int              `json:"repeats"`
	Points        []point          `json:"points"`
	SnapFootprint []snapfootPoint  `json:"snapshot_footprint"`
	Footprint     []footprintPoint `json:"log_footprint"`
}

func newArtifact(totalOps int, points []point, snap []snapfootPoint, foot []footprintPoint) throughputArtifact {
	return throughputArtifact{
		Schema:        artifactSchema,
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		TotalOps:      totalOps,
		Repeats:       etRepeats,
		Points:        points,
		SnapFootprint: snap,
		Footprint:     foot,
	}
}

// et: simulator-substrate throughput over 1..64 processes, every
// comparison's legs interleaved in the same session, plus the snapshot
// and log footprint tables.
func et() error {
	header("ET: parallel throughput suite (read fast path, delta compaction, shards; legs interleaved, medians)")
	totalOps := *etOpsFlag
	if max := etProcs[len(etProcs)-1]; totalOps < max {
		return fmt.Errorf("et: -etops %d below the widest sweep point (%d processes need at least one op each)", totalOps, max)
	}
	var points []point
	for _, c := range etComparisons() {
		ps, err := interleave(c, etRepeats, measure)
		if err != nil {
			return err
		}
		points = append(points, ps...)
	}
	var snap []snapfootPoint
	for _, ops := range []int{totalOps / 4, totalOps / 2, totalOps} {
		fp, err := snapFootprint(ops)
		if err != nil {
			return err
		}
		snap = append(snap, fp)
	}
	foot := footprintTable()

	suite := ""
	for _, p := range points {
		if p.Suite != suite {
			suite = p.Suite
			fmt.Printf("\nsuite %s (ratio: median per-repetition ops/sec over %s)\n", suite, p.RefLeg)
			row("mix/procs/gomax", "leg", "ops/sec", "pf/update", "ratio")
		}
		row(fmt.Sprintf("%s/%d/g%d", p.Mix, p.Procs, p.Gomax), p.Leg,
			fmt.Sprintf("%.0f", p.Medians.OpsPerSec),
			fmt.Sprintf("%.3f", p.Medians.PFencesPerUpd),
			fmt.Sprintf("%.2fx", p.Ratio))
	}
	fmt.Println()
	row("snapshot bytes/cut (keys)", "cuts b+d", "delta w/cut", "full w/cut", "ratio")
	for _, fp := range snap {
		row(fmt.Sprint(fp.FinalKeys), fmt.Sprintf("%d+%d", fp.Bases, fp.Deltas),
			fmt.Sprintf("%.0f", fp.WordsPerCut), fmt.Sprintf("%.0f", fp.FullWordsPerCut),
			fmt.Sprintf("%.3f", fp.Ratio))
	}
	fmt.Println()
	row("log footprint (procs)", "capacity", "two-tier B", "single-tier B", "ratio")
	for _, fp := range foot {
		row(fmt.Sprint(fp.Procs), fp.LogCapacity, fp.RegionBytes, fp.SingleTierBytes,
			fmt.Sprintf("%.2fx", fp.Ratio))
	}
	if *jsonFlag {
		data, err := json.MarshalIndent(newArtifact(totalOps, points, snap, foot), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	fmt.Println("NOTE: ops/sec here measures the simulator substrate, not real NVM.")
	return nil
}
