// Command onllbench regenerates every experiment table of the
// reproduction (see DESIGN.md §4 and EXPERIMENTS.md): fence counts,
// lower-bound executions, crash-injection sweeps, baseline comparisons,
// read scaling, reclamation and recovery.
//
// Usage:
//
//	onllbench [-exp all|e1|e2|e4|e5|e6|e7|e8|e9|e10|e11|e12|et] [-procs 4] [-ops 2000] [-seed 1]
//	onllbench -exp et -json   # also write the BENCH_throughput.json artifact
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ablation"
	"repro/internal/baselines"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/figure1"
	"repro/internal/lowerbound"
	"repro/internal/objects"
	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/shard"
)

var (
	expFlag   = flag.String("exp", "all", "experiment to run (all, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, et)")
	procsFlag = flag.Int("procs", 4, "maximum process count for sweeps")
	opsFlag   = flag.Int("ops", 2000, "operations per process")
	seedFlag  = flag.Int64("seed", 1, "workload seed")
	jsonFlag  = flag.Bool("json", false, "write the et throughput trajectory to "+jsonPath)
	etOpsFlag = flag.Int("etops", 200_000, "total operations per et throughput point (smaller = faster smoke, e.g. the multi-core CI leg)")
	deltaFlag = flag.Bool("deltasnap", false, "run e1 with base+delta-chain compaction cuts (core.Config.DeltaSnapshots) and pin pfences at 1/update + 2/cut, 0/read; et measures delta on AND off regardless")
)

// jsonPath is the trajectory artifact the -json mode maintains: the
// throughput suite's measurements, next to the recorded pre-sharding
// baseline, so the repo carries its own before/after evidence.
const jsonPath = "BENCH_throughput.json"

const poolSize = 1 << 27

// poolFor sizes a pool for nprocs per-process logs of logCap slots:
// slot width scales with the fuzzy-window bound (= nprocs), so wide
// `-procs` sweeps outgrow the fixed default.
func poolFor(nprocs, logCap int) int {
	need := nprocs*plog.RegionBytes(logCap, nprocs)*2 + (1 << 22)
	if need < poolSize {
		return poolSize
	}
	return need
}

func main() {
	flag.Parse()
	exps := map[string]func() error{
		"e1": e1, "e2": e2, "e3": e3, "e4": e4, "e5": e5, "e6": e6,
		"e7": e7, "e8": e8, "e9": e9, "e10": e10, "e11": e11, "e12": e12,
		"e13": e13, "et": et,
	}
	var names []string
	if *expFlag == "all" {
		for k := range exps {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := names[i], names[j]
			if len(a) != len(b) {
				return len(a) < len(b)
			}
			return a < b
		})
	} else {
		names = strings.Split(*expFlag, ",")
	}
	for _, n := range names {
		fn, ok := exps[strings.TrimSpace(n)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", n)
			os.Exit(2)
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// row prints an aligned table row.
func row(cols ...any) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	for i, p := range parts {
		if i == 0 {
			fmt.Printf("%-26s", p)
		} else {
			fmt.Printf("  %16s", p)
		}
	}
	fmt.Println()
}

// runConcurrent drives an Object with nprocs goroutines over seeded
// streams and returns elapsed time plus (updates, reads) executed.
func runConcurrent(obj baselines.Object, sp spec.Spec, nprocs, opsPerProc, updatePct int, seed int64) (time.Duration, int, int) {
	gen := workload.NewGenerator(sp)
	streams := make([][]workload.Step, nprocs)
	updates, reads := 0, 0
	for pid := range streams {
		streams[pid] = gen.Stream(seed+int64(pid)*7919, opsPerProc, updatePct)
		for _, st := range streams[pid] {
			if st.IsUpdate {
				updates++
			} else {
				reads++
			}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for _, st := range streams[pid] {
				if st.IsUpdate {
					if _, err := obj.Update(pid, st.Code, st.Args...); err != nil {
						panic(err)
					}
				} else {
					obj.Read(pid, st.Code, st.Args...)
				}
			}
		}(pid)
	}
	wg.Wait()
	return time.Since(start), updates, reads
}

// e1: Theorem 5.1 — persistent fences per operation, every object,
// 1..procs processes, lock-free and wait-free orderings.
func e1() error {
	header("E1 (Theorem 5.1): persistent fences per ONLL operation")
	row("object/procs/variant", "updates", "pfences", "pf/update", "pf/read")
	for _, sp := range objects.All() {
		for _, nprocs := range []int{1, *procsFlag} {
			for _, wf := range []bool{false, true} {
				pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
				cfg := core.Config{NProcs: nprocs, WaitFree: wf, LogCapacity: *opsFlag*2 + 64}
				if *deltaFlag {
					cfg.DeltaSnapshots, cfg.CompactEvery = true, 8
				}
				in, err := core.New(pool, sp, cfg)
				if err != nil {
					return err
				}
				pool.ResetStats()
				obj := baselines.ONLLAdapter{In: in}
				_, updates, reads := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 80, *seedFlag)
				tot := pool.TotalStats()
				variant := "lockfree"
				if wf {
					variant = "waitfree"
				}
				label := fmt.Sprintf("%s/%d/%s", sp.Name(), nprocs, variant)
				pfPerUpd := float64(tot.PersistentFences) / float64(updates)
				row(label, updates, tot.PersistentFences, fmt.Sprintf("%.4f", pfPerUpd),
					fmt.Sprintf("%.4f", 0.0))
				// The pin: one fence per update, zero per read — plus,
				// with -deltasnap, exactly two per compaction cut (chain
				// append + truncate), never a fence on the read side.
				want := uint64(updates)
				if *deltaFlag {
					st := in.CompactionStats()
					want += 2 * (st.Bases + st.Deltas)
				}
				if tot.PersistentFences != want {
					return fmt.Errorf("e1: %s: %d pfences for %d updates (want %d)", label, tot.PersistentFences, updates, want)
				}
				_ = reads
			}
		}
	}
	if *deltaFlag {
		fmt.Println("PASS: one pfence per update + two per delta-chain cut, zero per read, all objects")
	} else {
		fmt.Println("PASS: exactly one persistent fence per update, zero per read, all objects")
	}
	return nil
}

// e2: Theorem 6.3 — the constructed lower-bound executions.
func e2() error {
	header("E2 (Theorem 6.3): lower-bound executions (every process fences)")
	row("case/object", "n", "pfences/proc", "satisfied", "tight")
	for _, n := range []int{2, 4, *procsFlag * 2} {
		r1, err := lowerbound.Case1(n, false)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("case1/%s", r1.Object), n, fmt.Sprint(r1.PFences), r1.Satisfied(), r1.Tight())
		r2, err := lowerbound.Case2(n, false)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("case2/%s", r2.Object), n, fmt.Sprint(r2.PFences), r2.Satisfied(), r2.Tight())
		if !r1.Satisfied() || !r2.Satisfied() {
			return fmt.Errorf("e2: lower bound violated")
		}
	}
	rec, err := lowerbound.CrashArgument()
	if err != nil {
		return err
	}
	fmt.Printf("crash-before-fence argument: recovery found %d ops (op correctly lost)\n", rec)
	fmt.Println("PASS: in the adversarial schedule every process issues >=1 persistent fence")
	return nil
}

// e3: Figure 1 walkthrough.
func e3() error {
	header("E3 (Figure 1): the four worked executions of the ONLL counter")
	lines, err := figure1.All()
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		return err
	}
	fmt.Println("PASS: all intermediate and final values match Figure 1")
	return nil
}

// e4: Proposition 5.2 — the fuzzy window never exceeds MAX_PROCESSES.
func e4() error {
	header("E4 (Prop 5.2 / Fig 2): fuzzy window bounded by MAX_PROCESSES")
	nprocs := *procsFlag
	pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: nprocs, LogCapacity: *opsFlag*2 + 64})
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	maxRun := 0
	var mu sync.Mutex
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			run := 0
			for cur := in.Trace().Tail(nprocs - 1); cur != nil; cur = cur.Next() {
				if cur.Available() {
					break
				}
				run++
			}
			mu.Lock()
			if run > maxRun {
				maxRun = run
			}
			mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for pid := 0; pid < nprocs-1; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < *opsFlag; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					panic(err)
				}
			}
		}(pid)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	row("updaters", nprocs-1)
	row("max observed fuzzy window", maxRun)
	row("bound (MAX_PROCESSES)", nprocs)
	if maxRun > nprocs {
		return fmt.Errorf("e4: fuzzy window %d exceeded bound %d", maxRun, nprocs)
	}
	fmt.Println("PASS: fuzzy window within the Proposition 5.2 bound")
	return nil
}

// e5: randomized crash injection validated against Definition 5.6.
func e5() error {
	header("E5 (Lemma 5.7): randomized crash injection, durable linearizability")
	specs := []spec.Spec{objects.CounterSpec{}, objects.MapSpec{}, objects.QueueSpec{}, objects.BankSpec{}}
	runs := 0
	for _, sp := range specs {
		for seed := *seedFlag; seed < *seedFlag+4; seed++ {
			probe, err := check.RunLive(check.HarnessConfig{
				Spec: sp, NProcs: 3, OpsPerProc: 25, UpdatePct: 70, Seed: seed,
			})
			if err != nil {
				return err
			}
			for _, frac := range []uint64{10, 30, 50, 70, 90} {
				crash := probe.Steps * frac / 100
				if crash == 0 {
					crash = 1
				}
				for oi, oracle := range []pmem.Oracle{pmem.DropAll, pmem.KeepAll, pmem.SeededOracle(uint64(seed), 1, 2)} {
					if _, err := check.RunCrash(check.HarnessConfig{
						Spec: sp, NProcs: 3, OpsPerProc: 25, UpdatePct: 70,
						Seed: seed, CrashStep: crash, Oracle: oracle,
					}); err != nil {
						return fmt.Errorf("%s seed=%d crash@%d%% oracle=%d: %w", sp.Name(), seed, frac, oi, err)
					}
					runs++
				}
			}
		}
	}
	row("crash-injection runs validated", runs)
	fmt.Println("PASS: every recovered state is a consistent cut with correct return values")
	return nil
}

// e6: ONLL vs flat combining vs eager vs naive — fences and throughput.
func e6() error {
	header("E6 (Section 8): ONLL vs flat combining vs eager vs naive")
	row("impl/procs", "ops", "pfences", "pf/op", "ns/op")
	sp := objects.CounterSpec{}
	for _, nprocs := range []int{1, 2, *procsFlag} {
		type mk struct {
			name string
			make func(pool *pmem.Pool) (baselines.Object, error)
		}
		impls := []mk{
			{"onll", func(pool *pmem.Pool) (baselines.Object, error) {
				in, err := core.New(pool, sp, core.Config{NProcs: nprocs, LocalViews: true, LogCapacity: *opsFlag*2 + 64})
				return baselines.ONLLAdapter{In: in}, err
			}},
			{"flatcombining", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewFlatCombining(pool, sp, nprocs, *opsFlag*2+64)
			}},
			{"eager", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewEager(pool, sp, nprocs)
			}},
			{"naive", func(pool *pmem.Pool) (baselines.Object, error) {
				return baselines.NewNaive(pool, sp, 1<<10)
			}},
		}
		for _, im := range impls {
			pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
			obj, err := im.make(pool)
			if err != nil {
				return err
			}
			pool.ResetStats()
			elapsed, updates, reads := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 80, *seedFlag)
			tot := pool.TotalStats()
			ops := updates + reads
			row(fmt.Sprintf("%s/%d", im.name, nprocs), ops, tot.PersistentFences,
				fmt.Sprintf("%.3f", float64(tot.PersistentFences)/float64(updates)),
				fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(ops)))
		}
	}
	fmt.Println("NOTE: flat combining can amortize below 1 pf/update but is blocking;")
	fmt.Println("      eager pays 2 pf/update; naive pays O(state) pf/update.")
	return nil
}

// e7: fence-ordering comparison — ONLL (persist->linearize) vs eager
// (persist->linearize->persist), including read costs.
func e7() error {
	header("E7 (Sections 3.1/7): fence ordering — ONLL vs eager transform")
	row("impl", "pf/update", "fences/read(any)", "note")
	sp := objects.CounterSpec{}
	const n = 500

	poolA := pmem.New(poolSize, nil)
	inA, err := core.New(poolA, sp, core.Config{NProcs: 2, LocalViews: true, LogCapacity: 2*n + 64})
	if err != nil {
		return err
	}
	poolA.ResetStats()
	hA := inA.Handle(0)
	rA := inA.Handle(1)
	for i := 0; i < n; i++ {
		if _, _, err := hA.Update(objects.CounterInc); err != nil {
			return err
		}
		rA.Read(objects.CounterGet)
	}
	stU, stR := poolA.StatsOf(0), poolA.StatsOf(1)
	row("onll", fmt.Sprintf("%.3f", float64(stU.PersistentFences)/n),
		fmt.Sprintf("%.3f", float64(stR.Fences+stR.PersistentFences)/n),
		"linearize after persist")

	poolB := pmem.New(poolSize, nil)
	eg, err := baselines.NewEager(poolB, sp, 2)
	if err != nil {
		return err
	}
	poolB.ResetStats()
	for i := 0; i < n; i++ {
		if _, err := eg.Update(0, objects.CounterInc); err != nil {
			return err
		}
		eg.Read(1, objects.CounterGet)
	}
	stU, stR = poolB.StatsOf(0), poolB.StatsOf(1)
	row("eager", fmt.Sprintf("%.3f", float64(stU.PersistentFences)/n),
		fmt.Sprintf("%.3f", float64(stR.Fences+stR.PersistentFences)/n),
		"persist linearization too")
	fmt.Println("PASS: ONLL halves update fences and eliminates reader fences")
	return nil
}

// e8: read cost vs history length, with and without local views.
func e8() error {
	header("E8 (Section 8): read latency vs history length (local views)")
	row("history/variant", "reads", "ns/read")
	for _, histLen := range []int{100, 1000, 10000} {
		for _, lv := range []bool{false, true} {
			pool := pmem.New(poolSize, nil)
			in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 1, LocalViews: lv, LogCapacity: histLen*2 + 64})
			if err != nil {
				return err
			}
			h := in.Handle(0)
			for i := 0; i < histLen; i++ {
				if _, _, err := h.Update(objects.CounterInc); err != nil {
					return err
				}
			}
			const reads = 2000
			start := time.Now()
			for i := 0; i < reads; i++ {
				h.Read(objects.CounterGet)
			}
			el := time.Since(start)
			variant := "replay-all"
			if lv {
				variant = "local-views"
			}
			row(fmt.Sprintf("%d/%s", histLen, variant), reads,
				fmt.Sprintf("%.0f", float64(el.Nanoseconds())/reads))
		}
	}
	fmt.Println("NOTE: replay-all reads scale with history length; local-view reads do not.")
	return nil
}

// e9: memory reclamation via compaction.
func e9() error {
	header("E9 (Section 8): compaction bounds log and trace growth")
	row("variant", "ops", "live log recs", "trace nodes", "extra pf")
	const n = 5000
	for _, ce := range []int{0, 64} {
		pool := pmem.New(poolSize, nil)
		in, err := core.New(pool, objects.CounterSpec{}, core.Config{
			NProcs: 1, LocalViews: true, CompactEvery: ce, LogCapacity: 2*n + 64,
		})
		if err != nil {
			return err
		}
		pool.ResetStats()
		h := in.Handle(0)
		for i := 0; i < n; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				return err
			}
		}
		nodes := 0
		for cur := in.Trace().Tail(0); cur != nil && cur.Kind == trace.KindUpdate; cur = cur.Next() {
			nodes++
		}
		variant := "no-compaction"
		if ce > 0 {
			variant = fmt.Sprintf("compact-every-%d", ce)
		}
		row(variant, n, in.Log(0).Len(), nodes, pool.StatsOf(0).PersistentFences-uint64(n))
	}
	fmt.Println("PASS: with compaction, live records and reachable trace nodes stay bounded")
	return nil
}

// e10: recovery cost vs surviving history size.
func e10() error {
	header("E10 (Listing 5): recovery time and correctness vs history size")
	row("ops", "recovered", "recovery time")
	for _, n := range []int{100, 1000, 10000} {
		pool := pmem.New(poolSize, nil)
		in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, LogCapacity: 2*n + 64})
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for pid := 0; pid < 2; pid++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				h := in.Handle(pid)
				for i := 0; i < n/2; i++ {
					if _, _, err := h.Update(objects.CounterInc); err != nil {
						panic(err)
					}
				}
			}(pid)
		}
		wg.Wait()
		pool.Crash(pmem.DropAll)
		start := time.Now()
		in2, rep, err := core.Recover(pool, objects.CounterSpec{}, core.Config{})
		if err != nil {
			return err
		}
		el := time.Since(start)
		if got := in2.Handle(0).Read(objects.CounterGet); got != uint64(n)/2*2 {
			return fmt.Errorf("e10: post-recovery value %d, want %d", got, n)
		}
		row(n, rep.LastIdx, el)
	}
	fmt.Println("PASS: recovery reconstructs the full completed history, linear in log size")
	return nil
}

// e11: lock-freedom — a stalled process blocks nobody.
func e11() error {
	header("E11 (Lemma 5.3): lock-freedom under a stalled process")
	ctl := sched.NewController()
	pool := pmem.New(poolSize, ctl)
	in, err := core.New(pool, objects.CounterSpec{}, core.Config{NProcs: 2, Gate: ctl})
	if err != nil {
		return err
	}
	ctl.Spawn(0, func() { in.Handle(0).Update(objects.CounterInc) })
	if _, ok := ctl.RunUntil(0, sched.AtPoint(core.PointOrdered)); !ok {
		return fmt.Errorf("e11: p0 finished early")
	}
	completed := 0
	done := ctl.Spawn(1, func() {
		h := in.Handle(1)
		for i := 0; i < 100; i++ {
			if _, _, err := h.Update(objects.CounterInc); err == nil {
				completed++
			}
			h.Read(objects.CounterGet)
		}
	})
	ctl.RunToCompletion(1)
	<-done
	ctl.KillAll()
	row("p0 state", "stalled mid-update (ordered, not persisted)")
	row("p1 updates completed", completed)
	row("p1 reads completed", 100)
	if completed != 100 {
		return fmt.Errorf("e11: p1 blocked: %d/100", completed)
	}
	fmt.Println("PASS: progress is independent of the stalled process")
	return nil
}

// e13: ablations — remove a Section 3.1 design decision and watch the
// durability checker catch the resulting violation.
func e13() error {
	header("E13 (Section 3.1): ablations — the design decisions are load-bearing")
	type runner struct {
		name       string
		run        func() (*ablation.Outcome, error)
		wantBroken bool
	}
	for _, r := range []runner{
		{"control (real construction)", ablation.Control, false},
		{"no helping in the persist stage", ablation.NoHelping, true},
		{"linearize before persist", ablation.LinearizeFirst, true},
	} {
		out, err := r.run()
		if err != nil {
			return err
		}
		if r.wantBroken {
			if out.Violation == nil {
				return fmt.Errorf("e13: ablation %q did not violate durability", r.name)
			}
			row(r.name, "VIOLATES durability")
			fmt.Printf("    checker: %v\n", out.Violation)
		} else {
			if out.Violation != nil {
				return fmt.Errorf("e13: control violated durability: %v", out.Violation)
			}
			row(r.name, "durable (as proved)")
		}
	}
	fmt.Println("PASS: each removed decision produces the exact contradiction of Section 3.1")
	return nil
}

// e12: the wait-free ordering variant.
func e12() error {
	header("E12 (Section 8): wait-free execution trace variant")
	row("variant/procs", "updates", "pf/update", "ns/op")
	sp := objects.CounterSpec{}
	for _, wf := range []bool{false, true} {
		nprocs := *procsFlag
		pool := pmem.New(poolFor(nprocs, *opsFlag*2+64), nil)
		in, err := core.New(pool, sp, core.Config{NProcs: nprocs, WaitFree: wf, LogCapacity: *opsFlag*2 + 64})
		if err != nil {
			return err
		}
		pool.ResetStats()
		obj := baselines.ONLLAdapter{In: in}
		elapsed, updates, _ := runConcurrent(obj, sp, nprocs, *opsFlag/nprocs+1, 100, *seedFlag)
		tot := pool.TotalStats()
		variant := "lockfree"
		if wf {
			variant = "waitfree"
		}
		row(fmt.Sprintf("%s/%d", variant, nprocs), updates,
			fmt.Sprintf("%.3f", float64(tot.PersistentFences)/float64(updates)),
			fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(updates)))
		if tot.PersistentFences != uint64(updates) {
			return fmt.Errorf("e12: fence count off: %d != %d", tot.PersistentFences, updates)
		}
	}
	fmt.Println("PASS: the wait-free variant preserves the one-fence bound")
	return nil
}

// ---------------------------------------------------------------------
// et: the parallel throughput suite (mirrors BenchmarkThroughput).
// ---------------------------------------------------------------------

// throughputPoint is one measurement of the suite.
type throughputPoint struct {
	Workload      string  `json:"workload"` // "updates", "mixed50" or "ycsb-{a,b,c,d,e}"
	Procs         int     `json:"procs"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	PFencesPerUpd float64 `json:"pfences_per_update"`
	// FastPath tags the delta-compaction pairs ("on"/"off": the
	// read-fast-path leg the pair ran under); empty in the main sweep,
	// whose legs are the off/on dimension itself.
	FastPath string `json:"fastpath,omitempty"`
}

// footprintPoint records the per-process log footprint of the two-tier
// slot layout against the retired single-tier layout, at the geometry
// the throughput suite actually runs.
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

// throughputPR1 records the suite's numbers for the PR 1 code (sharded
// pool, before the PR 2 dense-object/line-batched-log/node-pooling
// work), RE-MEASURED immediately before the PR 2 changes on the same
// box and in the same session that produced PR 2's Current numbers —
// an apples-to-apples before/after. The PR 1 session itself recorded
// higher absolute numbers for the same code (updates@8 = 1,700,511
// ops/sec; box-to-box and day-to-day noise on shared CI-class hosts is
// that large), which is why trajectory comparisons are only made
// between same-session measurements.
var throughputPR1 = []throughputPoint{
	{Workload: "updates", Procs: 1, OpsPerSec: 1597376, NsPerOp: 626, PFencesPerUpd: 1.002},
	{Workload: "updates", Procs: 2, OpsPerSec: 1654303, NsPerOp: 604, PFencesPerUpd: 1.002},
	{Workload: "updates", Procs: 4, OpsPerSec: 1689578, NsPerOp: 592, PFencesPerUpd: 1.002},
	{Workload: "updates", Procs: 8, OpsPerSec: 1563342, NsPerOp: 640, PFencesPerUpd: 1.002},
	{Workload: "mixed50", Procs: 1, OpsPerSec: 3750244, NsPerOp: 267, PFencesPerUpd: 1.002},
	{Workload: "mixed50", Procs: 2, OpsPerSec: 3520617, NsPerOp: 284, PFencesPerUpd: 1.002},
	{Workload: "mixed50", Procs: 4, OpsPerSec: 3254741, NsPerOp: 307, PFencesPerUpd: 1.002},
	{Workload: "mixed50", Procs: 8, OpsPerSec: 3221648, NsPerOp: 310, PFencesPerUpd: 1.002},
}

// throughputBaseline records the suite's numbers measured against the
// seed's global-mutex pool (map-backed cache, map-backed pending and
// stats) on this suite's exact workload, immediately before the
// sharded-pool rewrite. They are the "before" half of the trajectory
// artifact; `onllbench -exp et -json` regenerates the "after" half.
var throughputBaseline = []throughputPoint{
	{Workload: "updates", Procs: 1, OpsPerSec: 1036824, NsPerOp: 964.5},
	{Workload: "updates", Procs: 2, OpsPerSec: 845365, NsPerOp: 1183},
	{Workload: "updates", Procs: 4, OpsPerSec: 747029, NsPerOp: 1339},
	{Workload: "updates", Procs: 8, OpsPerSec: 666491, NsPerOp: 1500},
	{Workload: "mixed50", Procs: 1, OpsPerSec: 2073624, NsPerOp: 482.2},
	{Workload: "mixed50", Procs: 2, OpsPerSec: 1517049, NsPerOp: 659.2},
	{Workload: "mixed50", Procs: 4, OpsPerSec: 1477231, NsPerOp: 676.9},
	{Workload: "mixed50", Procs: 8, OpsPerSec: 1350483, NsPerOp: 740.5},
}

// etConfig sizes an instance for nprocs simulated processes, sharing
// the sizing policy with BenchmarkThroughput* (workload.Throughput*) so
// both harnesses measure identical configurations. fast toggles the
// version-stamped read fast path: et measures every point both ways, so
// the artifact carries its own same-session before/after.
func etConfig(nprocs int, fast bool) core.Config {
	return core.Config{
		NProcs:       nprocs,
		LocalViews:   true,
		ReadFastPath: fast,
		CompactEvery: workload.ThroughputCompactEvery(nprocs),
		LogCapacity:  workload.ThroughputLogCapacity(nprocs),
	}
}

func etPoolSize(nprocs int) int {
	return workload.ThroughputPoolBytes(nprocs)
}

// measureThroughput drives nprocs goroutine-backed handles, updatePct
// percent updates, and returns the measured point.
func measureThroughput(nprocs, updatePct, totalOps int, fast bool) (throughputPoint, error) {
	pool := pmem.New(etPoolSize(nprocs), nil)
	in, err := core.New(pool, objects.CounterSpec{}, etConfig(nprocs, fast))
	if err != nil {
		return throughputPoint{}, err
	}
	// Warm up on the same instance so the measured pass is steady state:
	// lines faulted in, scratch buffers grown, local views caught up.
	for pid := 0; pid < nprocs; pid++ {
		h := in.Handle(pid)
		for i := 0; i < 200; i++ {
			if _, _, err := h.Update(objects.CounterInc); err != nil {
				return throughputPoint{}, err
			}
			h.Read(objects.CounterGet)
		}
	}
	pool.ResetStats()
	per := totalOps / nprocs
	updates := 0
	for i := 0; i < per; i++ {
		if i%100 < updatePct {
			updates++
		}
	}
	updates *= nprocs
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < nprocs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := in.Handle(pid)
			for i := 0; i < per; i++ {
				if i%100 < updatePct {
					if _, _, err := h.Update(objects.CounterInc); err != nil {
						panic(err)
					}
				} else {
					h.Read(objects.CounterGet)
				}
			}
		}(pid)
	}
	wg.Wait()
	el := time.Since(start)
	total := per * nprocs
	wl := "updates"
	if updatePct < 100 {
		wl = fmt.Sprintf("mixed%d", updatePct)
	}
	pt := throughputPoint{
		Workload:  wl,
		Procs:     nprocs,
		OpsPerSec: float64(total) / el.Seconds(),
		NsPerOp:   float64(el.Nanoseconds()) / float64(total),
	}
	if updates > 0 {
		pt.PFencesPerUpd = float64(pool.TotalStats().PersistentFences) / float64(updates)
	}
	return pt, nil
}

// measureYCSB drives one of the YCSB keyed mixes (zipfian keys over the
// ordered map) with nprocs handles and returns the measured point plus
// the instance (for compaction counters and state-size probes). The
// map is preloaded with the whole key space, as YCSB loads its dataset,
// so read-heavy mixes measure lookups against a populated index rather
// than misses on an empty one.
func measureYCSB(mix workload.YCSBWorkload, nprocs, totalOps int, cfg core.Config) (throughputPoint, *core.Instance, error) {
	pool := pmem.New(etPoolSize(nprocs), nil)
	in, err := core.New(pool, objects.OrderedMapSpec{}, cfg)
	if err != nil {
		return throughputPoint{}, nil, err
	}
	y := workload.NewYCSB(mix)
	if err := y.Preload(in.Handle(0)); err != nil {
		return throughputPoint{}, nil, err
	}
	per := totalOps / nprocs
	streams, updates := y.Streams(nprocs, per)
	// Warm-up pass so the measured pass is steady state.
	for pid := 0; pid < nprocs; pid++ {
		if err := workload.RunSteps(in.Handle(pid), streams[pid][:min(200, len(streams[pid]))]); err != nil {
			return throughputPoint{}, nil, err
		}
	}
	pool.ResetStats()
	var wg sync.WaitGroup
	start := time.Now()
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
	el := time.Since(start)
	total := per * nprocs
	pt := throughputPoint{
		Workload:  string(mix),
		Procs:     nprocs,
		OpsPerSec: float64(total) / el.Seconds(),
		NsPerOp:   float64(el.Nanoseconds()) / float64(total),
	}
	if updates > 0 {
		pt.PFencesPerUpd = float64(pool.TotalStats().PersistentFences) / float64(updates)
	} else if pf := pool.TotalStats().PersistentFences; pf > 0 {
		// Read-only mix (YCSB-C): any persistent fence is a bug in the
		// fence-free read path.
		return pt, in, fmt.Errorf("%s: %d persistent fences on a read-only mix", mix, pf)
	}
	return pt, in, nil
}

// etProcs is the process sweep: up to the full pid space (MaxPids = 64).
var etProcs = []int{1, 2, 4, 8, 16, 32, 64}

// etRepeats is the paired measurements taken per point; the fastest of
// each leg is kept. Shared CI-class boxes have second-scale scheduling
// bursts that dwarf a single 200k-op sample, and host speed drifts over
// minutes — so the two fast-path legs are measured back-to-back inside
// each repetition (never one whole leg after the other) and best-of-N
// per leg reports peak sustainable throughput instead of whichever
// burst a lone sample landed in.
const etRepeats = 3

// etPair returns the best-of-etRepeats measurement of one point for
// both legs of an on/off dimension (read fast path, delta compaction),
// interleaved off/on within every repetition.
func etPair(measure func(on bool) (throughputPoint, error)) (off, on throughputPoint, err error) {
	for r := 0; r < etRepeats; r++ {
		o, err := measure(false)
		if err != nil {
			return off, on, err
		}
		if o.OpsPerSec > off.OpsPerSec {
			off = o
		}
		n, err := measure(true)
		if err != nil {
			return off, on, err
		}
		if n.OpsPerSec > on.OpsPerSec {
			on = n
		}
	}
	return off, on, nil
}

// etMeasureAll runs the full sweep (counter updates/mixed + YCSB
// mixes), returning the fast-path-off and fast-path-on series.
func etMeasureAll(totalOps int) (offs, ons []throughputPoint, err error) {
	add := func(measure func(fast bool) (throughputPoint, error)) error {
		off, on, err := etPair(measure)
		if err != nil {
			return err
		}
		offs, ons = append(offs, off), append(ons, on)
		return nil
	}
	for _, updatePct := range []int{100, 50} {
		for _, nprocs := range etProcs {
			nprocs, updatePct := nprocs, updatePct
			if err := add(func(fast bool) (throughputPoint, error) {
				return measureThroughput(nprocs, updatePct, totalOps, fast)
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	mixes := []workload.YCSBWorkload{workload.YCSBA, workload.YCSBB, workload.YCSBC, workload.YCSBD, workload.YCSBE}
	for _, mix := range mixes {
		for _, nprocs := range etProcs {
			mix, nprocs := mix, nprocs
			if err := add(func(fast bool) (throughputPoint, error) {
				pt, _, err := measureYCSB(mix, nprocs, totalOps, etConfig(nprocs, fast))
				return pt, err
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	return offs, ons, nil
}

// etDeltaConfig is etConfig with the compaction cut content switched
// between full snapshots (delta=false) and base+delta chains
// (delta=true). The cadence is identical in both legs — only what each
// cut writes (and the flush pressure that write volume causes) differs.
func etDeltaConfig(nprocs int, fast, delta bool) core.Config {
	cfg := etConfig(nprocs, fast)
	cfg.DeltaSnapshots = delta
	return cfg
}

// deltaProcs is the delta-compaction sweep: a spread of the main sweep
// rather than all of it (each point is still 2 legs x best-of-3).
var deltaProcs = []int{1, 4, 16, 64}

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

// snapFootprint runs YCSB-D once with delta chains on (no timing, so no
// repeats needed) and reports the per-cut write volume. The cadence is
// tightened relative to the throughput-tuned suite config so dozens of
// cuts land per run and words/cut averages over real chains instead of
// one or two samples.
func snapFootprint(nprocs, totalOps int) (snapfootPoint, error) {
	cfg := etDeltaConfig(nprocs, true, true)
	cfg.CompactEvery = 256
	_, in, err := measureYCSB(workload.YCSBD, nprocs, totalOps, cfg)
	if err != nil {
		return snapfootPoint{}, err
	}
	st := in.CompactionStats()
	fp := snapfootPoint{
		Workload: string(workload.YCSBD), Procs: nprocs, TotalOps: totalOps,
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

// etDeltaMeasureAll measures the compaction dimension: YCSB-D (the
// churn mix whose cuts delta chains target) under BOTH read-fast-path
// legs, and YCSB-A under the shipped (fast-on) configuration, each with
// full snapshots and with base+delta chains in the same session, plus
// the snapshot-footprint series over a growing state. FastPath tags the
// points so the pairs stay distinguishable in the artifact.
func etDeltaMeasureAll(totalOps int) (offs, ons []throughputPoint, foot []snapfootPoint, err error) {
	legs := []struct {
		mix  workload.YCSBWorkload
		fast bool
	}{
		{workload.YCSBD, true},
		{workload.YCSBD, false},
		{workload.YCSBA, true},
	}
	for _, leg := range legs {
		for _, nprocs := range deltaProcs {
			leg, nprocs := leg, nprocs
			off, on, err := etPair(func(delta bool) (throughputPoint, error) {
				pt, _, err := measureYCSB(leg.mix, nprocs, totalOps, etDeltaConfig(nprocs, leg.fast, delta))
				if leg.fast {
					pt.FastPath = "on"
				} else {
					pt.FastPath = "off"
				}
				return pt, err
			})
			if err != nil {
				return nil, nil, nil, err
			}
			offs, ons = append(offs, off), append(ons, on)
		}
	}
	// Single-process footprint runs: one handle takes every insert, so
	// its cut cadence fires throughout the run and the per-cut averages
	// cover chains cut against a small, a medium and a large state.
	for _, ops := range []int{totalOps / 4, totalOps / 2, totalOps} {
		if ops < 8 {
			continue
		}
		fp, err := snapFootprint(1, ops)
		if err != nil {
			return nil, nil, nil, err
		}
		foot = append(foot, fp)
	}
	return offs, ons, foot, nil
}

// ---------------------------------------------------------------------
// et multicore: GOMAXPROCS x shards scaling (PR 8).
// ---------------------------------------------------------------------

// multicorePoint is one measurement of the scale-out sweep: a YCSB mix
// driven by mcProcs handles at a pinned GOMAXPROCS over a sharded
// composition (repro/shard) on one pool.
type multicorePoint struct {
	Workload      string  `json:"workload"`
	Procs         int     `json:"procs"`
	GoMaxProcs    int     `json:"go_max_procs"`
	Shards        int     `json:"shards"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	PFencesPerUpd float64 `json:"pfences_per_update"`
}

// mcProcs is the worker-handle count of every multicore point: it
// matches the CI runner's 4 vCPUs, so at GOMAXPROCS=4 every handle can
// genuinely run in parallel.
const mcProcs = 4

var (
	mcGomax    = []int{1, 2, 4}
	mcShardSet = []int{1, 2, 4}
	mcMixes    = []workload.YCSBWorkload{workload.YCSBC, workload.YCSBA}
)

// measureYCSBSharded is measureYCSB over the shard composition: the
// composed handle routes each keyed op to its partition, so the same
// streams, preload and warm-up drive 1..N shards identically.
func measureYCSBSharded(mix workload.YCSBWorkload, nshards, totalOps int) (multicorePoint, error) {
	base := etConfig(mcProcs, true)
	pool := pmem.New(etPoolSize(mcProcs)*nshards+(1<<22), nil)
	in, err := shard.Open(pool, objects.OrderedMapSpec{}, shard.Config{Shards: nshards, Base: base})
	if err != nil {
		return multicorePoint{}, err
	}
	y := workload.NewYCSB(mix)
	if err := y.Preload(in.Handle(0)); err != nil {
		return multicorePoint{}, err
	}
	per := totalOps / mcProcs
	streams, updates := y.Streams(mcProcs, per)
	for pid := 0; pid < mcProcs; pid++ {
		if err := workload.RunSteps(in.Handle(pid), streams[pid][:min(200, len(streams[pid]))]); err != nil {
			return multicorePoint{}, err
		}
	}
	pool.ResetStats()
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < mcProcs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if err := workload.RunSteps(in.Handle(pid), streams[pid]); err != nil {
				panic(err)
			}
		}(pid)
	}
	wg.Wait()
	el := time.Since(start)
	total := per * mcProcs
	pt := multicorePoint{
		Workload:   string(mix),
		Procs:      mcProcs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     nshards,
		OpsPerSec:  float64(total) / el.Seconds(),
		NsPerOp:    float64(el.Nanoseconds()) / float64(total),
	}
	if updates > 0 {
		pt.PFencesPerUpd = float64(pool.TotalStats().PersistentFences) / float64(updates)
	} else if pf := pool.TotalStats().PersistentFences; pf > 0 {
		// The composition must preserve the fence-free read path: a
		// read-only mix routed across shards still issues ZERO fences.
		return pt, fmt.Errorf("%s/shards=%d: %d persistent fences on a read-only mix", mix, nshards, pf)
	}
	return pt, nil
}

// etMulticoreMeasureAll runs the scale-out sweep: for each pinned
// GOMAXPROCS and each mix, the shard ladder is measured interleaved
// within each of etRepeats repetitions (best-of per leg), so every
// speedup over the single-shard leg is a same-session, same-minute
// comparison. GOMAXPROCS is restored afterwards.
func etMulticoreMeasureAll(totalOps int) (scaled []multicorePoint, err error) {
	oldGomax := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(oldGomax)
	for _, g := range mcGomax {
		runtime.GOMAXPROCS(g)
		for _, mix := range mcMixes {
			best := make([]multicorePoint, len(mcShardSet))
			for r := 0; r < etRepeats; r++ {
				for i, ns := range mcShardSet {
					p, err := measureYCSBSharded(mix, ns, totalOps)
					if err != nil {
						return nil, err
					}
					if p.OpsPerSec > best[i].OpsPerSec {
						best[i] = p
					}
				}
			}
			scaled = append(scaled, best...)
		}
	}
	return scaled, nil
}

// et: simulator-substrate throughput scaling over 1..64 processes.
// Every point is measured twice in the same session — read fast path
// off (the PR 3 configuration) and on — so the speedup column compares
// like with like on the same host, immune to box-to-box noise. A second
// same-session pair does the same for the compaction scheme (full
// snapshots vs base+delta chains) on YCSB-D/A, with a footprint series
// showing per-cut write volume staying sub-linear in state size.
func et() error {
	header("ET: parallel throughput suite (read fast path on/off, delta compaction on/off, YCSB-A/B/C/D/E)")
	totalOps := *etOpsFlag
	if max := etProcs[len(etProcs)-1]; totalOps < max {
		return fmt.Errorf("et: -etops %d below the widest sweep point (%d processes need at least one op each)", totalOps, max)
	}
	pr3, current, err := etMeasureAll(totalOps)
	if err != nil {
		return err
	}
	deltaOff, deltaOn, snapFoot, err := etDeltaMeasureAll(totalOps)
	if err != nil {
		return err
	}
	mcScaled, err := etMulticoreMeasureAll(totalOps)
	if err != nil {
		return err
	}
	prev := func(wl string, procs int) float64 {
		for _, b := range pr3 {
			if b.Workload == wl && b.Procs == procs {
				return b.OpsPerSec
			}
		}
		return 0
	}
	row("workload/procs", "ops/sec", "ns/op", "pf/update", "vs fastpath-off")
	for _, pt := range current {
		speedup := "n/a"
		if b := prev(pt.Workload, pt.Procs); b > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.OpsPerSec/b)
		}
		row(fmt.Sprintf("%s/%d", pt.Workload, pt.Procs),
			fmt.Sprintf("%.0f", pt.OpsPerSec),
			fmt.Sprintf("%.0f", pt.NsPerOp),
			fmt.Sprintf("%.3f", pt.PFencesPerUpd), speedup)
	}
	fmt.Println()
	row("delta compaction", "full ops/sec", "delta ops/sec", "speedup", "pf/update (delta)")
	for i, on := range deltaOn {
		off := deltaOff[i]
		row(fmt.Sprintf("%s/%d/fast-%s", on.Workload, on.Procs, on.FastPath),
			fmt.Sprintf("%.0f", off.OpsPerSec),
			fmt.Sprintf("%.0f", on.OpsPerSec),
			fmt.Sprintf("%.2fx", on.OpsPerSec/off.OpsPerSec),
			fmt.Sprintf("%.3f", on.PFencesPerUpd))
	}
	fmt.Println()
	row("snapshot bytes/cut (keys)", "cuts b+d", "delta w/cut", "full w/cut", "ratio")
	for _, fp := range snapFoot {
		row(fmt.Sprint(fp.FinalKeys), fmt.Sprintf("%d+%d", fp.Bases, fp.Deltas),
			fmt.Sprintf("%.0f", fp.WordsPerCut), fmt.Sprintf("%.0f", fp.FullWordsPerCut),
			fmt.Sprintf("%.3f", fp.Ratio))
	}
	mcBaseline := func(wl string, gomax int) float64 {
		for _, b := range mcScaled {
			if b.Workload == wl && b.GoMaxProcs == gomax && b.Shards == 1 {
				return b.OpsPerSec
			}
		}
		return 0
	}
	fmt.Println()
	row("multicore (mix/gmp/shards)", "ops/sec", "pf/update", "vs 1 shard")
	for _, pt := range mcScaled {
		speedup := "n/a"
		if b := mcBaseline(pt.Workload, pt.GoMaxProcs); b > 0 {
			speedup = fmt.Sprintf("%.2fx", pt.OpsPerSec/b)
		}
		row(fmt.Sprintf("%s/g%d/s%d", pt.Workload, pt.GoMaxProcs, pt.Shards),
			fmt.Sprintf("%.0f", pt.OpsPerSec),
			fmt.Sprintf("%.3f", pt.PFencesPerUpd), speedup)
	}
	footprint := footprintTable()
	fmt.Println()
	row("log footprint (procs)", "capacity", "two-tier B", "single-tier B", "ratio")
	for _, fp := range footprint {
		row(fmt.Sprint(fp.Procs), fp.LogCapacity, fp.RegionBytes, fp.SingleTierBytes,
			fmt.Sprintf("%.2fx", fp.Ratio))
	}
	if *jsonFlag {
		// Carry the onllserve latency series (maintained by `onllserve
		// -bench -json`) across regenerations: this harness rewrites
		// the whole document, so the keys it does not own must ride
		// along verbatim or a throughput rerun would clobber them.
		var prevLatency, prevLatencyNote json.RawMessage
		if prev, err := os.ReadFile(jsonPath); err == nil {
			var doc map[string]json.RawMessage
			if json.Unmarshal(prev, &doc) == nil {
				prevLatency, prevLatencyNote = doc["latency"], doc["latency_note"]
			}
		}
		artifact := struct {
			Schema        string            `json:"schema"`
			GeneratedUnix int64             `json:"generated_unix"`
			GoMaxProcs    int               `json:"go_max_procs"`
			TotalOps      int               `json:"total_ops_per_point"`
			BaselineNote  string            `json:"baseline_note"`
			PR1Note       string            `json:"pr1_note"`
			PR3Note       string            `json:"pr3_note"`
			PR5Note       string            `json:"pr5_note"`
			DeltaNote     string            `json:"delta_note"`
			FootprintNote string            `json:"footprint_note"`
			MulticoreNote string            `json:"multicore_note"`
			Baseline      []throughputPoint `json:"baseline_global_mutex_pool"`
			PR1           []throughputPoint `json:"pr1_sharded_pool"`
			PR3           []throughputPoint `json:"pr3_read_fastpath_off"`
			Current       []throughputPoint `json:"current_read_fastpath"`
			DeltaOff      []throughputPoint `json:"delta_snapshots_off"`
			DeltaOn       []throughputPoint `json:"delta_snapshots_on"`
			SnapFootprint []snapfootPoint   `json:"snapshot_footprint"`
			Footprint     []footprintPoint  `json:"log_footprint"`
			Multicore     []multicorePoint  `json:"multicore_scaling"`
			Latency       json.RawMessage   `json:"latency,omitempty"`
			LatencyNote   json.RawMessage   `json:"latency_note,omitempty"`
		}{
			Schema:        "bench_throughput/v9",
			GeneratedUnix: time.Now().Unix(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			TotalOps:      totalOps,
			BaselineNote: "baseline measured on the seed's single-mutex map-backed pool " +
				"with the identical workload, before the lock-striped rewrite",
			PR1Note: "pr1 code (sharded pool, before dense object states, line-batched " +
				"log writes and trace-node pooling) re-measured in the same session " +
				"as the PR 2 numbers for an apples-to-apples delta; the PR 1 session " +
				"itself recorded updates@8 = 1,700,511 ops/sec for the same code " +
				"(host noise). ycsb and the 16/32/64-process points did not exist yet",
			PR3Note: "the PR 3 configuration (two-tier logs, read fast path OFF), " +
				"re-measured in the same session as the current numbers so the " +
				"fast-path delta is host-noise-free; ycsb-d did not exist in PR 3 " +
				"but is measured both ways here for the same reason. Every point " +
				"is best-of-3 per leg with the legs interleaved off/on inside " +
				"each repetition (host speed drifts over minutes; single samples " +
				"on shared boxes land in second-scale scheduling bursts)",
			PR5Note: "v5 (PR 5): both legs include the pmem pending-set index fix " +
				"(snapshot-sized flush batches used to dedupe by O(n^2) linear scan, " +
				"dominating ycsb-d's compaction cost), so absolute numbers jump vs v4; " +
				"the fast-on leg is the epoch check (DESIGN.md §3.5); the shared-view " +
				"slots it also carried from v5 to v8 were removed in v9. " +
				"ycsb-d (read-latest churn) is the headline mix for the on/off delta. " +
				"go_max_procs and total_ops_per_point (-etops) describe the " +
				"pr3_read_fastpath_off and current_read_fastpath legs ONLY: the " +
				"baseline and pr1 series are fixed historical recordings from " +
				"1-CPU 200k-op sessions and are not comparable to a multi-core " +
				"or resized regeneration",
			DeltaNote: "v6 (delta-chain compaction): delta_snapshots_off and _on are " +
				"same-session pairs differing only in what a compaction cut writes " +
				"— a full state snapshot vs a chain base plus per-cut delta " +
				"records; cadence identical, pfences/op unchanged (1 per update + " +
				"2 per cut, 0 per read). ycsb-d (fresh-key churn: the state grows " +
				"all run, so full cuts get steadily more expensive) is the headline " +
				"mix and runs with the read fast path both on and off (the " +
				"fastpath field tags the leg); ycsb-a is the contrast where the " +
				"preloaded key space bounds the state, so chains collapse every " +
				"few cuts and the win only appears once cut cost is contended. " +
				"At the highest proc count the small per-proc log keeps the " +
				"pressure valve hot in both legs and the pair is noise-dominated. " +
				"snapshot_footprint sweeps total_ops with delta on and reports " +
				"appended words per cut vs the full-snapshot equivalent for the " +
				"same cuts: near-flat vs state-tracking, i.e. sub-linear in state " +
				"size",
			FootprintNote: "plog.RegionBytes of the two-tier slot layout (inline budget " +
				"4 ops + shared overflow ring at 1/8 of worst case) vs the retired " +
				"single-tier layout, at the suite's log geometry; pfences/op unchanged",
			MulticoreNote: "v7 (multi-core scale-out): GOMAXPROCS {1,2,4} x shards {1,2,4} " +
				"on ycsb-c/ycsb-a, always 4 worker handles, one shared pool. " +
				"The shard legs are interleaved inside each best-of-3 repetition, " +
				"so every speedup over the 1-shard leg is a same-session " +
				"comparison (v9 dropped the v7-v8 single-slot baseline leg and " +
				"slot_stripes field along with the slots). pfences/update stays 1 and ycsb-c " +
				"stays fence-free through the shard router. The scaling curve is " +
				"only meaningful when this artifact was generated on a multi-core " +
				"host (go_max_procs >= 4, i.e. CI's bench-multicore runner); on a " +
				"1-CPU box all GOMAXPROCS legs collapse to interleaved execution " +
				"and the curve is flat modulo noise",
			Baseline:      throughputBaseline,
			PR1:           throughputPR1,
			PR3:           pr3,
			Current:       current,
			DeltaOff:      deltaOff,
			DeltaOn:       deltaOn,
			SnapFootprint: snapFoot,
			Footprint:     footprint,
			Multicore:     mcScaled,
			Latency:       prevLatency,
			LatencyNote:   prevLatencyNote,
		}
		data, err := json.MarshalIndent(artifact, "", "  ")
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
