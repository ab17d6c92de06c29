// Command spider-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	spider-bench -list
//	spider-bench -run all -scale 0.2
//	spider-bench -run fig2,table2 -format csv -out results/
//	spider-bench -run all -workers 8 -progress -timings results/bench_timings.json
//	spider-bench -run chaos -events out.jsonl -pprof localhost:6060
//	spider-bench -run population -spans spans.jsonl   (analyze with spider-trace)
//	spider-bench -run chaos -rollups rollups.jsonl    (analyze with spider-trace -rollups)
//	spider-bench -run none -benchgate BENCH_population.json
//	spider-bench -run none -scale 0.05 -overhead results/overhead.txt
//
// Each experiment is deterministic in -seed. -scale in (0,1] trades
// fidelity for runtime (1.0 reproduces the full paper-scale runs).
//
// Independent simulation runs are sharded across a bounded worker pool
// (internal/fleet). Every job derives its own seed and results merge in
// canonical order, so output is byte-identical for any -workers value;
// -workers 1 reproduces the fully sequential runner. A panicking run is
// isolated to its experiment: the failure is reported on stderr and the
// remaining experiments still complete (exit status 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"spider/internal/atomicwrite"
	"spider/internal/benchgate"
	"spider/internal/core"
	"spider/internal/experiments"
	"spider/internal/fleet"
	"spider/internal/obs"
	"spider/internal/stats"
	"spider/internal/telemetry"
)

type renderable interface {
	Render() string
	CSV() string
}

type experiment struct {
	id   string
	desc string
	run  func(experiments.Options) []renderable
}

func one(r renderable) []renderable { return []renderable{r} }

// town routes every town-derived experiment through the fleet result
// cache: TownStudy memoizes itself under its canonical options key, so
// Table 2/4, Figures 11-13/16-17, and the AP-density summary share one
// computation however many of them run, in whatever order.
func town(o experiments.Options) *experiments.TownResults {
	return experiments.TownStudy(o)
}

var registry = []experiment{
	{"fig2", "join model vs simulation", func(o experiments.Options) []renderable { return one(experiments.Figure2(o)) }},
	{"fig3", "join probability vs βmax", func(o experiments.Options) []renderable { return one(experiments.Figure3(o)) }},
	{"fig4", "optimal bandwidth vs speed (3 splits + dividing speeds)", func(o experiments.Options) []renderable {
		var out []renderable
		for _, f := range experiments.Figure4(o) {
			out = append(out, f)
		}
		out = append(out, experiments.DividingSpeeds(o))
		return out
	}},
	{"fig5", "association time vs schedule fraction", func(o experiments.Options) []renderable { return one(experiments.Figure5(o)) }},
	{"fig6", "dhcp lease time vs schedule and timeout", func(o experiments.Options) []renderable { return one(experiments.Figure6(o)) }},
	{"fig7", "TCP throughput vs primary-channel fraction", func(o experiments.Options) []renderable { return one(experiments.Figure7(o)) }},
	{"fig8", "TCP throughput vs absolute dwell", func(o experiments.Options) []renderable { return one(experiments.Figure8(o)) }},
	{"table1", "channel switch latency", func(o experiments.Options) []renderable { return one(experiments.Table1(o)) }},
	{"fig10", "throughput vs backhaul bandwidth", func(o experiments.Options) []renderable { return one(experiments.Figure10(o)) }},
	{"table2", "throughput/connectivity by configuration", func(o experiments.Options) []renderable { return one(experiments.Table2(town(o))) }},
	{"fig11", "connection duration CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure11(town(o))) }},
	{"fig12", "disruption length CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure12(town(o))) }},
	{"fig13", "instantaneous bandwidth CDFs", func(o experiments.Options) []renderable { return one(experiments.Figure13(town(o))) }},
	{"table3", "dhcp failure probabilities", func(o experiments.Options) []renderable { return one(experiments.Table3(o)) }},
	{"fig14", "join time vs dhcp timeout", func(o experiments.Options) []renderable { return one(experiments.Figure14(o)) }},
	{"fig15", "join time vs scheduling policy", func(o experiments.Options) []renderable { return one(experiments.Figure15(o)) }},
	{"table4", "throughput/connectivity by channel count", func(o experiments.Options) []renderable { return one(experiments.Table4(town(o))) }},
	{"fig16", "user vs Spider connection lengths", func(o experiments.Options) []renderable { return one(experiments.Figure16(o, town(o))) }},
	{"fig17", "user vs Spider disruption lengths", func(o experiments.Options) []renderable { return one(experiments.Figure17(o, town(o))) }},
	{"apdensity", "time at k concurrent APs (Section 4.4)", func(o experiments.Options) []renderable { return one(experiments.APDensity(town(o))) }},
	{"appendixa", "multi-AP selection solver ablation", func(o experiments.Options) []renderable { return one(experiments.AppendixA(o)) }},
	{"chaos", "fault-injection sweep: recovery time and goodput retention", func(o experiments.Options) []renderable {
		cr := experiments.ChaosStudy(o)
		return []renderable{experiments.ChaosTable(cr), experiments.ChaosRecoveryFigure(cr)}
	}},
	{"population", "N-client scaling on a shared corridor: aggregate goodput, fairness, DHCP pool pressure", func(o experiments.Options) []renderable {
		r := experiments.PopulationStudy(o)
		return []renderable{experiments.PopulationTable(r), experiments.PopulationFigure(r)}
	}},
	{"fairness", "fairness frontier: heuristic vs decentralized vs oracle PF allocation across the population ladder", func(o experiments.Options) []renderable {
		r := experiments.FairnessStudy(o)
		return []renderable{experiments.FairnessTable(r), experiments.FairnessJainFigure(r), experiments.FairnessGoodputFigure(r)}
	}},
	{"rushhour", "address-exhaustion rush: lease churn through shared IPAM pools, with/without failover and GC", func(o experiments.Options) []renderable {
		r := experiments.RushHourStudy(o)
		return []renderable{experiments.RushHourTable(r), experiments.RushHourFigure(r)}
	}},
	{"ablation", "design-choice ablations (lease cache, timers, vifs, striping, adaptive, predictive, energy)", func(o experiments.Options) []renderable {
		return []renderable{
			experiments.AblationLeaseCache(o),
			experiments.AblationTimers(o),
			experiments.AblationInterfaces(o),
			experiments.AblationStriping(o),
			experiments.AblationAdaptive(o),
			experiments.AblationPredictive(o),
			experiments.AblationEnergy(o),
		}
	}},
}

// outcome collects one experiment's results for in-order emission.
type outcome struct {
	outputs []renderable
	err     error
	wall    time.Duration
	stats   fleet.GroupStats
	done    chan struct{}
}

// timingRecord is one experiment's machine-readable timing line.
type timingRecord struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	// Failed counts jobs that panicked or were canceled.
	Failed    int `json:"failed,omitempty"`
	CacheHits int `json:"cache_hits"`
	// JobWallMS is the summed wall time of the experiment's fleet jobs —
	// the cost a sequential runner would have paid for them.
	JobWallMS float64 `json:"job_wall_ms"`
	// WallMS is the experiment's observed wall time on the shared pool.
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// timingsFile seeds the repo's performance trajectory: one record per
// experiment plus enough host context to compare runs.
type timingsFile struct {
	Seed        int64          `json:"seed"`
	Scale       float64        `json:"scale"`
	Workers     int            `json:"workers"`
	NumCPU      int            `json:"num_cpu"`
	TotalJobs   int            `json:"total_jobs"`
	CacheHits   int            `json:"cache_hits"`
	TotalWallMS float64        `json:"total_wall_ms"`
	Experiments []timingRecord `json:"experiments"`
}

func main() {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		seed     = flag.Int64("seed", 1, "random seed")
		scale    = flag.Float64("scale", 1.0, "fidelity scale in (0,1]")
		format   = flag.String("format", "text", "output format: text or csv")
		outDir   = flag.String("out", "", "directory to write one file per experiment (default stdout)")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (1 = fully sequential)")
		progress = flag.Bool("progress", false, "report fleet progress (jobs, cache, ETA) on stderr")
		timings  = flag.String("timings", "", "write machine-readable per-experiment timings JSON to this file")
		popjson  = flag.String("popjson", "", "benchmark the population ladder (1/8/64 classic rungs, a 32-client ipam-enabled rung, and dense-stagger 256/1024 city-scale rungs) and write goodput, ns/op, and allocs JSON to this file")
		gate     = flag.String("benchgate", "", "re-measure the population benchmark and exit non-zero if it regressed past -benchgate-threshold vs this baseline JSON (at default -seed/-scale, gates against the baseline's own workload)")
		gateThr  = flag.Float64("benchgate-threshold", 0.15, "relative regression tolerated by -benchgate (0.15 = 15%)")
		allocThr = flag.Float64("benchgate-alloc-threshold", benchgate.DefaultAllocThreshold, "stricter relative growth tolerated for the deterministic allocation metrics (0.05 = 5%)")
		events   = flag.String("events", "", "record every simulation run's structured event stream and write merged JSONL to this file")
		spansOut = flag.String("spans", "", "record every simulation run's causal spans and write merged JSONL to this file (analyze with spider-trace)")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
		rollups  = flag.String("rollups", "", "attach the telemetry plane to every simulation run and write merged rollup JSONL to this file (analyze with spider-trace -rollups)")
		overhead = flag.String("overhead", "", "measure the cost of event recording (chaos scenario) and of the telemetry plane (1024-client dense rung), write the report to this file, and fail if telemetry costs 3% wall or more")
	)
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.NumCPU() // match the pool's own default; 0 would wedge the launcher
	}

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}
	want := map[string]bool{}
	if *runList != "all" && *runList != "none" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		var known []string
		for _, e := range registry {
			known = append(known, e.id)
		}
		sort.Strings(known)
		for id := range want {
			found := false
			for _, k := range known {
				if k == id {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, ", "))
				os.Exit(2)
			}
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintf(os.Stderr, "# pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "# pprof serving on http://%s/debug/pprof/\n", *pprofSrv)
	}

	var onEvent func(fleet.Event)
	if *progress {
		onEvent = progressPrinter()
	}
	pool := fleet.New(fleet.Config{Workers: *workers, Retries: 1, OnEvent: onEvent})
	defer pool.Close()

	// One collector shared by every experiment: each run files its event
	// stream under a canonical job label, and export is in sorted label
	// order, so the JSONL is byte-identical at any -workers value.
	var collector *obs.Collector
	if *events != "" || *spansOut != "" {
		collector = obs.NewCollector()
	}
	// Likewise one rollup collector: each run's telemetry aggregator files
	// its closed windows under the job label, merged in sorted order.
	var rollupCollector *telemetry.Collector
	if *rollups != "" {
		rollupCollector = telemetry.NewCollector()
	}

	var selected []experiment
	for _, e := range registry {
		if *runList != "all" && !want[e.id] {
			continue
		}
		selected = append(selected, e)
	}

	// SIGINT/SIGTERM turn into a graceful flush: experiments that already
	// finished still emit their results (atomically — a signal can never
	// leave a truncated artifact), unfinished ones are skipped, and the
	// process exits 128+signal instead of dying mid-write.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var gotSig os.Signal

	// Experiments launch concurrently (bounded by the worker count) and
	// shard their simulation runs on the shared pool; emission below waits
	// on each in registry order, so stdout is byte-identical to a
	// sequential run.
	totalStart := time.Now()
	outcomes := make([]*outcome, len(selected))
	sem := make(chan struct{}, *workers)
	for i, e := range selected {
		oc := &outcome{done: make(chan struct{})}
		outcomes[i] = oc
		go func(e experiment, oc *outcome) {
			sem <- struct{}{}
			defer func() { <-sem }()
			group := pool.Group(e.id)
			opts := experiments.Options{Seed: *seed, Scale: *scale, Fleet: group, Events: collector, Rollups: rollupCollector}
			start := time.Now()
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); ok {
						oc.err = err
					} else {
						oc.err = fmt.Errorf("%v", r)
					}
				}
				oc.wall = time.Since(start)
				oc.stats = group.Stats()
				close(oc.done)
			}()
			oc.outputs = e.run(opts)
		}(e, oc)
	}

	failures := 0
	skipped := 0
	var records []timingRecord
	for i, e := range selected {
		oc := outcomes[i]
		if gotSig == nil {
			select {
			case <-oc.done:
			case s := <-sigCh:
				gotSig = s
				fmt.Fprintf(os.Stderr, "# %v: flushing completed experiments and exiting\n", s)
			}
		}
		if gotSig != nil {
			// Only emit what already finished; never block on the rest.
			select {
			case <-oc.done:
			default:
				skipped++
				continue
			}
		}
		rec := timingRecord{
			ID:        e.id,
			Jobs:      oc.stats.Jobs,
			Failed:    oc.stats.Failed,
			CacheHits: oc.stats.CacheHits,
			JobWallMS: float64(oc.stats.JobWall.Microseconds()) / 1000,
			WallMS:    float64(oc.wall.Microseconds()) / 1000,
		}
		if oc.err != nil {
			failures++
			rec.Error = oc.err.Error()
			records = append(records, rec)
			fmt.Fprintf(os.Stderr, "# %s FAILED: %v\n", e.id, oc.err)
			continue
		}
		records = append(records, rec)
		for j, r := range oc.outputs {
			var body string
			ext := "txt"
			if *format == "csv" {
				body = r.CSV()
				ext = "csv"
			} else {
				body = r.Render()
			}
			if *outDir == "" {
				fmt.Print(body)
				fmt.Println()
				continue
			}
			name := e.id
			if len(oc.outputs) > 1 {
				name = fmt.Sprintf("%s-%d", e.id, j)
			}
			path := filepath.Join(*outDir, name+"."+ext)
			if err := atomicwrite.WriteFile(path, []byte(body), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", e.id, oc.wall.Round(time.Millisecond))
	}

	if *events != "" {
		if err := writeEvents(*events, collector); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d events (%d runs) written to %s\n",
			collector.Summary().Total(), len(collector.Runs()), *events)
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, collector); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d spans (%d runs) written to %s\n",
			collector.SpanCount(), len(collector.SpanRuns()), *spansOut)
	}
	if *rollups != "" {
		if err := writeRollups(*rollups, rollupCollector); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# %d rollup windows (%d runs) written to %s\n",
			rollupCollector.WindowCount(), len(rollupCollector.Runs()), *rollups)
	}
	if *overhead != "" && gotSig == nil {
		if err := writeOverhead(*overhead, *seed, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# overhead report written to %s\n", *overhead)
	}
	if *timings != "" {
		tf := timingsFile{
			Seed:        *seed,
			Scale:       *scale,
			Workers:     pool.Workers(),
			NumCPU:      runtime.NumCPU(),
			TotalWallMS: float64(time.Since(totalStart).Microseconds()) / 1000,
			Experiments: records,
		}
		for _, r := range records {
			tf.TotalJobs += r.Jobs
			tf.CacheHits += r.CacheHits
		}
		if err := os.MkdirAll(filepath.Dir(*timings), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		body, err := json.MarshalIndent(tf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := atomicwrite.WriteFile(*timings, append(body, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# timings written to %s\n", *timings)
	}
	if *popjson != "" && gotSig == nil {
		if err := writePopulationBench(*popjson, *seed, *scale); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# population bench written to %s\n", *popjson)
	}
	if *gate != "" && gotSig == nil {
		report, ok, err := runBenchGate(*gate, *seed, *scale, *gateThr, *allocThr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}
	if gotSig != nil {
		fmt.Fprintf(os.Stderr, "# interrupted by %v: %d experiment(s) flushed, %d skipped\n",
			gotSig, len(records), skipped)
		code := 1
		if s, ok := gotSig.(syscall.Signal); ok {
			code = 128 + int(s)
		}
		os.Exit(code)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "# %d experiment(s) failed\n", failures)
		os.Exit(1)
	}
}

// measurePopulation runs the population benchmark ladder inline (no
// fleet: each run timed alone through benchgate.Paired) and samples each
// rung's goodput and mean wall time and allocations per run — the
// measurement behind both -popjson (record a baseline) and -benchgate
// (compare against one). The small rungs average 3 runs; the 256/512/1024
// rungs run once, as at that size a run is long enough that scheduler
// jitter is a rounding error.
// The 32-client rung swaps in the production IPAM plan (shared pool
// hierarchy, backup failover, sim-time lease GC) under the same radio
// workload, so address-management cost regressions gate independently of
// the plain data-path rungs. The 256 and 1024 rungs use the dense-stagger
// city-scale scenario (the classic 1.5 s spacing would leave most of the
// population off the road). Rungs match by client count and benchgate
// ignores rungs present in only one file, so older baselines that
// predate a rung still compare cleanly.
func measurePopulation(seed int64, scale float64) benchgate.File {
	o := experiments.Options{Seed: seed, Scale: scale}
	out := benchgate.File{Seed: seed, Scale: scale, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	rungs := []struct {
		n         int
		runs      int
		scenario  func(experiments.Options, int) (core.WorldConfig, []core.ClientConfig)
		telemetry bool
	}{
		{1, 3, experiments.PopulationScenario, false},
		{8, 3, experiments.PopulationScenario, false},
		{32, 3, experiments.PopulationIPAMScenario, false},
		{64, 3, experiments.PopulationScenario, false},
		{256, 1, experiments.PopulationDenseScenario, false},
		// The 512 rung runs the dense scenario with the full telemetry
		// plane attached (streaming recorder, rollups, flight recorder,
		// SLO evaluation), so telemetry-path cost regressions gate
		// independently of the bare data-path rungs. Matched by client
		// count like every other rung — 512 is unique to this arm.
		{512, 1, experiments.PopulationDenseScenario, true},
		{1024, 1, experiments.PopulationDenseScenario, false},
	}
	for _, rung := range rungs {
		var p core.PopulationResult
		s := benchgate.Paired(rung.runs, func() {
			world, clients := rung.scenario(o, rung.n)
			if rung.telemetry {
				world.Telemetry = telemetry.New(telemetry.Config{Seed: seed, SLOs: telemetry.DefaultSLOs()})
			}
			p = core.RunPopulation(world, clients)
		})[0]
		runs := uint64(rung.runs)
		rec := benchgate.Record{
			Clients:       rung.n,
			Telemetry:     rung.telemetry,
			AggregateKBps: p.AggregateKBps,
			JainFairness:  p.JainFairness,
			WallNS:        s.Wall.Nanoseconds() / int64(rung.runs),
			Allocs:        s.Mallocs / runs,
			AllocBytes:    s.Bytes / runs,
		}
		fmt.Fprintf(os.Stderr, "# population bench: clients=%-4d wall=%v allocs=%d (%d/client)\n",
			rec.Clients, time.Duration(rec.WallNS).Round(time.Millisecond), rec.Allocs, rec.Allocs/uint64(rec.Clients))
		out.Records = append(out.Records, rec)
	}
	return out
}

// writePopulationBench records a fresh population baseline file.
func writePopulationBench(path string, seed int64, scale float64) error {
	body, err := json.MarshalIndent(measurePopulation(seed, scale), "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return atomicwrite.WriteFile(path, append(body, '\n'), 0o644)
}

// runBenchGate measures the population rungs fresh, compares them against
// the committed baseline, and returns the rendered verdict plus whether
// the gate passed. Wall-time comparisons only mean something on hardware
// comparable to the baseline's; CI re-records its baseline on the same
// machine before gating.
func runBenchGate(baselinePath string, seed int64, scale float64, threshold, allocThreshold float64) (string, bool, error) {
	baseline, err := benchgate.Load(baselinePath)
	if err != nil {
		return "", false, err
	}
	// Gate against the baseline's own workload: a -scale mismatch would
	// otherwise just error out in Compare.
	if seed == 1 && scale == 1.0 {
		seed, scale = baseline.Seed, baseline.Scale
	}
	current := measurePopulation(seed, scale)
	regs, err := benchgate.Compare(baseline, current, threshold, allocThreshold)
	if err != nil {
		return "", false, err
	}
	return benchgate.Report(baseline, current, regs, threshold, allocThreshold), len(regs) == 0, nil
}

// writeEvents exports the collector's merged event streams as JSONL, one
// object per event, runs in sorted label order. The artifact carries only
// sim-time timestamps, so repeated runs at any worker count produce
// byte-identical files.
func writeEvents(path string, c *obs.Collector) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := atomicwrite.Create(path, 0o644)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// writeSpans exports the collector's merged causal spans as JSONL in the
// same canonical order as the event export: runs sorted by label, spans in
// recorded (Start, Client, ID) order within each run.
func writeSpans(path string, c *obs.Collector) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := atomicwrite.Create(path, 0o644)
	if err != nil {
		return err
	}
	if err := c.WriteSpansJSONL(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// writeRollups exports the merged rollup JSONL: every run's windows then
// its flight accounting, runs in sorted label order. Sim-time only, so
// the artifact is byte-identical at any -workers value.
func writeRollups(path string, c *telemetry.Collector) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := atomicwrite.Create(path, 0o644)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// overheadPairs is how many alternating detached/attached rounds each
// -overhead row sums over.
const overheadPairs = 16

// overheadRows are the instrumentation layers -overhead measures, each on
// the workload it is sized for. run runs the workload once with the layer
// detached or attached and returns a description of the layer's state
// after the run. A gating row fails the command at budget percent wall
// overhead or more; a row that does not gate is reported against its
// contract.
var overheadRows = []struct {
	layer, workload string
	budget          float64
	gates           bool
	run             func(o experiments.Options, attach bool) (state func() string)
}{
	{"event recording", "chaos scenario (the event-densest workload)", 5, false,
		func(o experiments.Options, attach bool) func() string {
			c := experiments.ChaosScenario(o)
			if attach {
				c.Obs = obs.NewRecorder()
			}
			core.Run(c)
			return func() string { return fmt.Sprintf("%d events recorded per run", c.Obs.Summary().Total()) }
		}},
	{"telemetry plane", "1024-client dense-stagger rung", 3, true,
		func(o experiments.Options, attach bool) func() string {
			world, clients := experiments.PopulationDenseScenario(o, 1024)
			if attach {
				world.Telemetry = telemetry.New(telemetry.Config{Seed: o.Seed, SLOs: telemetry.DefaultSLOs()})
			}
			core.RunPopulation(world, clients)
			tel := world.Telemetry
			return func() string {
				fc := tel.FlightCounters()
				return fmt.Sprintf("bounded state: %d rollup windows (%d dropped), flight %d/%d events %d/%d spans, %d clients sampled",
					len(tel.Windows()), tel.DroppedWindows(),
					fc.EventsKept, fc.EventCap, fc.SpansKept, fc.SpanCap, fc.ClientsSampled)
			}
		}},
}

// writeOverhead times every overheadRows layer through benchgate.Paired
// and writes the report. Each row's verdict compares the per-arm sums;
// the per-pair ratios' median and IQR are printed beside it to show how
// much of the figure is noise. The report is written even when a gating
// row breaches its budget, which is then returned as the error.
func writeOverhead(path string, seed int64, scale float64) error {
	o := experiments.Options{Seed: seed, Scale: scale}
	var b strings.Builder
	var breach error
	fmt.Fprintf(&b, "overhead: seed=%d scale=%g, sums over %d pairs per row (one untimed warm-up per arm, alternating order, GC before each timed run)\n",
		seed, scale, overheadPairs)
	pct := func(on, off float64) float64 { return (on/off - 1) * 100 }
	perRun := func(s benchgate.Sample) string {
		return fmt.Sprintf("%.1fms wall, %.1fms cpu, %.1f MB allocated per run",
			s.Wall.Seconds()*1e3/overheadPairs, s.CPU.Seconds()*1e3/overheadPairs, float64(s.Bytes)/overheadPairs/(1<<20))
	}
	for _, row := range overheadRows {
		var state func() string
		s := benchgate.Paired(overheadPairs,
			func() { row.run(o, false) },
			func() { state = row.run(o, true) })
		wall := pct(float64(s[1].Wall), float64(s[0].Wall))
		r := s[1].Ratios
		fmt.Fprintf(&b, "\n%s: %s\n", row.layer, row.workload)
		fmt.Fprintf(&b, "  detached: %s\n", perRun(s[0]))
		fmt.Fprintf(&b, "  attached: %s\n", perRun(s[1]))
		fmt.Fprintf(&b, "  overhead: %+.2f%% wall (per-pair median %+.2f%%, IQR %+.2f%% to %+.2f%%), %+.2f%% cpu, %+.1f%% allocated bytes\n",
			wall, pct(stats.Percentile(r, 0.5), 1), pct(stats.Percentile(r, 0.25), 1), pct(stats.Percentile(r, 0.75), 1),
			pct(float64(s[1].CPU), float64(s[0].CPU)), pct(float64(s[1].Bytes), float64(s[0].Bytes)))
		fmt.Fprintf(&b, "  %s\n", state())
		switch {
		case !row.gates && wall <= row.budget:
			fmt.Fprintf(&b, "  verdict: within the <=%g%% contract (reported, not gated)\n", row.budget)
		case !row.gates:
			fmt.Fprintf(&b, "  verdict: over the <=%g%% contract (reported, not gated)\n", row.budget)
		case wall < row.budget:
			fmt.Fprintf(&b, "  verdict: PASS (< %g%% wall overhead)\n", row.budget)
		default:
			fmt.Fprintf(&b, "  verdict: FAIL (>= %g%% wall overhead)\n", row.budget)
			breach = fmt.Errorf("%s overhead %.2f%% exceeds the %g%% budget", row.layer, wall, row.budget)
		}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := atomicwrite.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return breach
}

// progressPrinter renders fleet telemetry as throttled stderr lines:
// queue depth, completions, cache traffic, and the pool's ETA.
func progressPrinter() func(fleet.Event) {
	var mu sync.Mutex
	var last time.Time
	return func(ev fleet.Event) {
		switch ev.Type {
		case fleet.JobDone, fleet.JobFailed, fleet.CacheHit:
		default:
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// Always report failures and cache hits; throttle the steady
		// completion stream.
		if ev.Type == fleet.JobDone && time.Since(last) < 250*time.Millisecond {
			return
		}
		last = time.Now()
		s := ev.Stats
		line := fmt.Sprintf("[fleet] %s %s", ev.Type, ev.Job)
		if ev.Group != "" {
			line = fmt.Sprintf("[fleet] %s %s/%s", ev.Type, ev.Group, ev.Job)
		}
		if ev.Wall > 0 {
			line += fmt.Sprintf(" in %v", ev.Wall.Round(time.Millisecond))
		}
		line += fmt.Sprintf("  queued=%d running=%d done=%d", s.Queued, s.Running, s.Done)
		if s.Failed > 0 {
			line += fmt.Sprintf(" failed=%d", s.Failed)
		}
		if s.CacheHits > 0 {
			line += fmt.Sprintf(" cache-hits=%d", s.CacheHits)
		}
		if !s.Health.Empty() {
			line += fmt.Sprintf(" faults=%d recovered=%d drops=%d",
				s.Health.Faults, s.Health.Recoveries, s.Health.LinkDrops)
		}
		if !s.Events.Empty() {
			line += fmt.Sprintf(" events=%d", s.Events.Total())
		}
		if s.ETA > 0 {
			line += fmt.Sprintf(" eta=%v", s.ETA.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
