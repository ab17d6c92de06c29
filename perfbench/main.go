// Command perfbench is the repository benchmark. It drives one named
// workload against the simulator's public packages from a single
// goroutine, checks that the outputs are correct, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: the end-to-end metrics (untraced run) or the per-layer
// ledger (traced run, --trace 1). README.md documents the workloads and
// how each metric is computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics plus the human-readable lines printed
// before the JSON result.
type report struct {
	metrics   map[string]metric
	notes     []string // "# ..." lines: extra metrics, sample counts, ledger
	checks    []string // failed correctness checks
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // build/artifact directory inside the checkout
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"corridor-1024", func(c config, r *report) error { return runCore(corridor1024, c, r) }},
	{"striped-oracle-64", func(c config, r *report) error { return runCore(stripedOracle64, c, r) }},
	{"serve-rush", runServeRush},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: corridor-1024, striped-oracle-64, serve-rush")
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed (baseline 1, held-out 2)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement length in host seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer ledger instead of end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for spans, profiles and serve state")
	flag.Parse()
	cfg.trace = trace == 1
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One goroutine drives each workload, on one P: the garbage
	// collector runs beside it on the same core, so no figure depends on
	// waking a second, idle vCPU of a shared host, and every host gives
	// the collector the same parallelism.
	runtime.GOMAXPROCS(1)

	var w workload
	for _, x := range workloads {
		if x.name == cfg.workload {
			w = x
		}
	}
	rep := newReport()
	err := w.run(cfg, rep)
	if err != nil {
		rep.fail("%v", err)
		rep.failed++
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for _, c := range rep.checks {
		fmt.Println("# CHECK FAILED: " + c)
	}
	res := result{Correct: len(rep.checks) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	printMetrics(rep.metrics)
	b, _ := json.Marshal(res) // plain maps and numbers always encode
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(cfg config, trace int) error {
	known := make([]string, len(workloads))
	ok := false
	for i, w := range workloads {
		known[i] = w.name
		ok = ok || w.name == cfg.workload
	}
	switch {
	case !ok:
		return fmt.Errorf("unknown --workload %q (known: %s)", cfg.workload, strings.Join(known, ", "))
	case cfg.seed == 0:
		return fmt.Errorf("--seed is required and must be non-zero")
	case cfg.seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return nil
}

// printMetrics prints every JSON metric as a readable table.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// artifact returns a path for a per-run output file.
func artifact(cfg config, suffix string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-%s-seed%d%s", cfg.workload, cfg.seed, suffix))
}
