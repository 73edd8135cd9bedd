// Command onllserve is the batched network front end over one ONLL
// instance (internal/server, DESIGN.md §3.10), plus the open-loop
// latency benchmark the service numbers come from.
//
// Serve mode (default) binds a TCP or unix listener, maps connections
// onto the instance's simulated processes, and batches updates so one
// log append + one persistent fence covers many client requests:
//
//	onllserve -addr 127.0.0.1:7171 -nprocs 8 -batch 64 -wait 200us
//
// Bench mode (-bench) runs an in-process server on a loopback listener
// and drives it OPEN-LOOP: request arrival times are drawn from a
// Poisson process at -rate and honored regardless of completions, and
// each latency is measured from the request's SCHEDULED arrival — not
// from when a backlogged client got around to sending — so the
// percentiles do not suffer coordinated omission. Each YCSB phase runs
// once per ack mode (ack-on-linearize and ack-on-persist), reporting
// p50/p99/p999 and measured persists-per-request; -json writes the
// series to BENCH_latency.json. A request that fails (a connection that
// cannot be dialed, an error response) fails the run with a non-zero
// exit, so the percentiles always cover every scheduled request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/workload"
)

var (
	addrFlag = flag.String("addr", "127.0.0.1:0", "listen address (serve mode)")
	netFlag  = flag.String("net", "tcp", "listen network: tcp or unix")
	nprocsF  = flag.Int("nprocs", 4, "simulated processes (1 batcher + n-1 read handles)")
	batchF   = flag.Int("batch", 64, "flush when this many updates are staged")
	waitF    = flag.Duration("wait", 200*time.Microsecond, "flush a non-empty batch after this long")
	ackF     = flag.String("ack", "persist", "default ack mode for plain updates: persist|linearize")
	timingsF = flag.String("timings", "", "after shutdown, dump per-request timing CSV to this file")
	benchF   = flag.Bool("bench", false, "run the open-loop latency benchmark instead of serving")
	rateF    = flag.Float64("rate", 20000, "bench: Poisson arrival rate, requests/sec")
	nF       = flag.Int("n", 5000, "bench: requests per phase")
	connsF   = flag.Int("conns", 4, "bench: client connections")
	mixF     = flag.String("mix", "ycsb-a,ycsb-b,ycsb-c", "bench: comma-separated YCSB phases")
	jsonF    = flag.Bool("json", false, "bench: write the latency series to "+jsonPath)
	seedF    = flag.Int64("seed", 1, "bench: workload seed")
)

// jsonPath is the artifact `-bench -json` writes, whole, on every run.
const jsonPath = "BENCH_latency.json"

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "onllserve:", err)
		os.Exit(1)
	}
}

func run() error {
	if *ackF != "persist" && *ackF != "linearize" {
		return fmt.Errorf("-ack must be persist or linearize, got %q", *ackF)
	}
	if *benchF {
		return bench()
	}
	return serve()
}

func serve() error {
	pool := pmem.New(workload.ThroughputPoolBytes(*nprocsF), nil)
	y := workload.NewYCSB(workload.YCSBA) // served object: the ordered map
	in, err := core.New(pool, y.Spec(), core.Config{
		NProcs:       *nprocsF,
		LogCapacity:  workload.ThroughputLogCapacity(*nprocsF),
		LogMaxOps:    *nprocsF + *batchF,
		CompactEvery: workload.ThroughputCompactEvery(*nprocsF),
		ReadFastPath: workload.ReadFastPathEnabled(),
	})
	if err != nil {
		return err
	}
	s, err := server.New(in, server.Config{
		AckOnPersist: *ackF == "persist",
		Batcher:      server.BatcherConfig{MaxBatch: *batchF, MaxWait: *waitF},
	})
	if err != nil {
		return err
	}
	if err := s.Listen(*netFlag, *addrFlag); err != nil {
		return err
	}
	fmt.Printf("onllserve: listening on %s %s (ack-on-%s, batch<=%d, wait %v)\n",
		*netFlag, s.Addr(), *ackF, *batchF, *waitF)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("onllserve: draining...")
	s.Close()
	st := s.Stats()
	fmt.Printf("onllserve: drained clean: %d updates in %d flushes, %d reads, %d conns\n",
		st.Updates, st.Flushes, st.Reads, st.Conns)
	return dumpTimings(s)
}

func dumpTimings(s *server.Server) error {
	if *timingsF == "" {
		return nil
	}
	f, err := os.Create(*timingsF)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.DumpTimings(f)
}

// latencyPoint is one (mix, ack mode) leg of the open-loop benchmark.
type latencyPoint struct {
	Mix                string  `json:"workload"`
	Ack                string  `json:"ack"`
	RateRPS            float64 `json:"rate_rps"`
	Requests           int     `json:"requests"`
	Conns              int     `json:"conns"`
	UpdatePct          int     `json:"update_pct"`
	MaxBatch           int     `json:"max_batch"`
	MaxWaitUS          float64 `json:"max_wait_us"`
	P50US              float64 `json:"p50_us"`
	P99US              float64 `json:"p99_us"`
	P999US             float64 `json:"p999_us"`
	AvgBatch           float64 `json:"avg_batch"`
	PersistsPerRequest float64 `json:"persists_per_request"`
	OpsPerSec          float64 `json:"achieved_rps"`
}

func bench() error {
	mixes := strings.Split(*mixF, ",")
	var points []latencyPoint
	for _, mix := range mixes {
		for _, ack := range []string{"linearize", "persist"} {
			pt, err := benchLeg(workload.YCSBWorkload(strings.TrimSpace(mix)), ack)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", mix, ack, err)
			}
			points = append(points, pt)
		}
	}
	fmt.Println()
	w := func(cols ...string) {
		for _, c := range cols {
			fmt.Printf("%-14s", c)
		}
		fmt.Println()
	}
	w("mix", "ack", "p50_us", "p99_us", "p999_us", "avg_batch", "pfence/req")
	for _, p := range points {
		w(p.Mix, p.Ack,
			fmt.Sprintf("%.1f", p.P50US), fmt.Sprintf("%.1f", p.P99US),
			fmt.Sprintf("%.1f", p.P999US), fmt.Sprintf("%.1f", p.AvgBatch),
			fmt.Sprintf("%.4f", p.PersistsPerRequest))
	}
	fmt.Println("NOTE: latencies measure the simulator substrate over loopback, not real NVM.")
	if *jsonF {
		return writeLatency(points)
	}
	return nil
}

func benchLeg(mix workload.YCSBWorkload, ack string) (latencyPoint, error) {
	var pt latencyPoint
	y := workload.NewYCSB(mix)
	nprocs := *nprocsF
	pool := pmem.New(workload.ThroughputPoolBytes(nprocs), nil)
	in, err := core.New(pool, y.Spec(), core.Config{
		NProcs:       nprocs,
		LogCapacity:  workload.ThroughputLogCapacity(nprocs),
		LogMaxOps:    nprocs + *batchF,
		CompactEvery: workload.ThroughputCompactEvery(nprocs),
		ReadFastPath: workload.ReadFastPathEnabled(),
	})
	if err != nil {
		return pt, err
	}
	// Preload the key space through the batcher's handle before the
	// server claims it, as the closed-loop harnesses do.
	if err := y.Preload(in.Handle(0)); err != nil {
		return pt, err
	}
	s, err := server.New(in, server.Config{
		AckOnPersist: ack == "persist",
		Batcher:      server.BatcherConfig{MaxBatch: *batchF, MaxWait: *waitF},
		TimingCap:    *nF,
	})
	if err != nil {
		return pt, err
	}
	if err := s.Listen("tcp", "127.0.0.1:0"); err != nil {
		return pt, err
	}
	pool.ResetStats()

	conns := *connsF
	perConn := *nF / conns
	total := perConn * conns
	latencies := make([]float64, 0, total)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		updates  int
		firstErr error
		firstNs  = time.Now()
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for ci := 0; ci < conns; ci++ {
		steps := y.Stream(*seedF+int64(ci)*7919, perConn)
		for _, st := range steps {
			if st.IsUpdate {
				updates++
			}
		}
		wg.Add(1)
		go func(ci int, steps []workload.Step) {
			defer wg.Done()
			c, err := server.Dial("tcp", s.Addr().String())
			if err != nil {
				fail(fmt.Errorf("conn %d: %w", ci, err))
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(*seedF + int64(ci)*104729))
			perConnRate := *rateF / float64(conns)
			sched := time.Now()
			var awaits sync.WaitGroup
			for _, st := range steps {
				// Poisson arrivals: exponential inter-arrival gaps. The
				// schedule advances regardless of completions (open
				// loop); if the server falls behind, later requests are
				// sent late but MEASURED from their scheduled arrival.
				gap := time.Duration(rng.ExpFloat64() / perConnRate * float64(time.Second))
				sched = sched.Add(gap)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				kind := server.KindRead
				if st.IsUpdate {
					kind = server.KindUpdatePersist
					if ack == "linearize" {
						kind = server.KindUpdateLinearize
					}
				}
				ch := c.Async(kind, st.Code, st.Args...)
				awaits.Add(1)
				go func(scheduled time.Time) {
					defer awaits.Done()
					r := <-ch
					lat := time.Since(scheduled)
					if r.Err != nil {
						fail(r.Err)
						return
					}
					mu.Lock()
					latencies = append(latencies, float64(lat.Nanoseconds())/1e3)
					mu.Unlock()
				}(sched)
			}
			awaits.Wait()
		}(ci, steps)
	}
	wg.Wait()
	elapsed := time.Since(firstNs).Seconds()
	stats := s.Stats()
	fences := pool.TotalStats().PersistentFences
	s.Close()
	if len(latencies) < total {
		return pt, fmt.Errorf("%d of %d requests failed, first: %w", total-len(latencies), total, firstErr)
	}

	sort.Float64s(latencies)
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	avgBatch := 0.0
	if stats.Flushes > 0 {
		avgBatch = float64(stats.Batched) / float64(stats.Flushes)
	}
	ppr := 0.0
	if updates > 0 {
		ppr = float64(fences) / float64(updates)
	}
	pt = latencyPoint{
		Mix: string(mix), Ack: ack, RateRPS: *rateF, Requests: total,
		Conns: conns, UpdatePct: y.UpdatePct(), MaxBatch: *batchF,
		MaxWaitUS: float64(waitF.Microseconds()),
		P50US:     pct(0.50), P99US: pct(0.99), P999US: pct(0.999),
		AvgBatch: avgBatch, PersistsPerRequest: ppr,
		OpsPerSec: float64(len(latencies)) / elapsed,
	}
	fmt.Printf("%s/%s: %d reqs @ %.0f rps, p50 %.1fus p99 %.1fus p999 %.1fus, "+
		"avg batch %.1f, %.4f pfences/req (%d acked)\n",
		mix, ack, total, *rateF, pt.P50US, pt.P99US, pt.P999US,
		avgBatch, ppr, len(latencies))
	return pt, nil
}

// writeLatency writes the latency series to jsonPath as one document
// of its own (schema bench_latency/v1); it reads nothing back.
func writeLatency(points []latencyPoint) error {
	doc := struct {
		Schema        string         `json:"schema"`
		GeneratedUnix int64          `json:"generated_unix"`
		GoMaxProcs    int            `json:"go_max_procs"`
		NProcs        int            `json:"nprocs"`
		Points        []latencyPoint `json:"points"`
	}{
		Schema:        "bench_latency/v1",
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NProcs:        *nprocsF,
		Points:        points,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}
