// Command perfbench is the repository's benchmark: three closed-loop
// workloads over the ordered map, two driving core handles directly
// and one through the network server, each checked for correctness.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs half the time untraced and half under a benchmark-owned
// sched.Gate, and reports the per-layer split. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. It exits 1 if any correctness gate fails. README.md in this
// directory explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/workload"
)

// bench is one workload: its untraced and traced runs.
type bench interface {
	params() map[string]any
	endToEnd(seed int64, seconds int, c *checker) []metric
	traced(seed int64, seconds int, c *checker, spans *[]span) []metric
}

var workloads = map[string]bench{
	"ycsb-a-1k":  libWorkload{name: "ycsb-a-1k", mix: workload.YCSBA, keys: 1 << 10},
	"ycsb-d-64k": libWorkload{name: "ycsb-d-64k", mix: workload.YCSBD, keys: 1 << 16},
	"svc-a-1k":   svcWorkload{name: "svc-a-1k", mix: workload.YCSBA, keys: 1 << 10},
}

// spanDir receives the traced run's spans, relative to the directory
// the benchmark runs in.
const spanDir = ".bench_build/spans"

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: ycsb-a-1k, ycsb-d-64k or svc-a-1k")
	seed := flag.Int64("seed", 1, "seed every input stream is derived from")
	seconds := flag.Int("seconds", 10, "timed seconds (split in half on the traced run)")
	traceF := flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", names())
		return 2
	}
	params, _ := json.Marshal(w.params())
	fmt.Printf("workload %s seed %d seconds %d trace %d\nparams %s\n", *name, *seed, *seconds, *traceF, params)

	var (
		c  checker
		ms []metric
	)
	if *traceF == 0 {
		ms = w.endToEnd(*seed, *seconds, &c)
	} else {
		var spans []span
		ms = w.traced(*seed, *seconds, &c, &spans)
		pl, err := plogLayer()
		c.gate(err == nil, "plog layer driver: %v", err)
		ms = append(ms, pl...)
		ms = append(ms, pmemLayer()...)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.csv", *name, *seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans %d written to %s\n", len(spans), path)
		}
	}
	for _, m := range ms {
		c.gate(!math.IsNaN(m.value) && !math.IsInf(m.value, 0), "metric %s is %v", m.name, m.value)
	}

	fmt.Printf("%-28s %16s %-10s %s\n", "metric", "value", "unit", "samples")
	for _, m := range ms {
		fmt.Printf("%-28s %16.6g %-10s %d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Printf("%-28s %16.6g %-10s %d\n", "failed_ops_frac", ratio(float64(c.failed), float64(c.attempted)), "ratio", c.attempted)
	for _, p := range c.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(c.problems) == 0, c.attempted, c.failed, map[string]value{}}
	for _, m := range ms {
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	return ns
}

// writeSpans writes the traced run's spans as CSV: id, parent (0 for a
// call), name, start and end in UnixNano.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
