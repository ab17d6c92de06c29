// Package benchgate holds the repository's one timing protocol, Paired,
// and the population benchmark regression gate: it compares a fresh
// BENCH_population-style measurement against a committed baseline and
// flags rungs whose cost grew (wall time, allocations) or whose delivered
// goodput shrank beyond a threshold. The comparison logic is pure so the
// gate's pass/fail decision is unit-testable without running benchmarks;
// cmd/spider-bench -benchgate wires it to a live measurement and turns
// failures into a non-zero exit.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Sample is one arm's cost summed over its timed runs in Paired.
type Sample struct {
	Wall time.Duration
	// CPU is process CPU time (getrusage, user+system). It is immune to
	// involuntary scheduling gaps, so it is often the steadier of the two.
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
	// Ratios holds, per round, this arm's wall time over the first arm's
	// in the same round (nil for the first arm): their median and IQR
	// show the spread that the sum-based figure averages away.
	Ratios []float64
}

// Paired times arms with the repository's one measurement protocol. Each
// arm first runs once untimed (page faults, allocator growth); then each
// of pairs rounds runs every arm once, in forward order on even rounds
// and reversed on odd ones, with a forced GC before each timed run. The
// returned samples are per-arm sums. Sums over alternating rounds, not a
// per-arm minimum or a single run, cancel position effects and average
// machine noise: a ~300 ms run moves by ±10% on a busy host, and the same
// binary once measured 1% and 14% overhead on consecutive min-of-3
// attempts.
func Paired(pairs int, arms ...func()) []Sample {
	for _, arm := range arms {
		arm()
	}
	out := make([]Sample, len(arms))
	walls := make([]time.Duration, len(arms))
	for r := 0; r < pairs; r++ {
		for k := range arms {
			i := k
			if r%2 == 1 {
				i = len(arms) - 1 - k
			}
			walls[i] = timed(arms[i], &out[i])
		}
		for i := 1; i < len(arms); i++ {
			out[i].Ratios = append(out[i].Ratios, float64(walls[i])/float64(walls[0]))
		}
	}
	return out
}

// timed runs f once after a forced GC, adds its cost to s, and returns
// its wall time.
func timed(f func(), s *Sample) time.Duration {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	f()
	wall := time.Since(start)
	s.CPU += cpuTime() - cpu
	runtime.ReadMemStats(&after)
	s.Wall += wall
	s.Mallocs += after.Mallocs - before.Mallocs
	s.Bytes += after.TotalAlloc - before.TotalAlloc
	return wall
}

// cpuTime is the process's user+system CPU time so far; 0 if getrusage
// fails, which makes the CPU figure read as no cost rather than abort a
// measurement whose wall time is still valid.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Record is one population rung's performance sample — the JSON layout of
// BENCH_population.json entries.
type Record struct {
	Clients int `json:"clients"`
	// Telemetry marks rungs measured with the streaming telemetry plane
	// attached (rollups, flight recorder, SLO evaluation). Rungs are
	// still matched by client count alone — a telemetry rung uses a
	// client count no bare rung shares.
	Telemetry     bool    `json:"telemetry,omitempty"`
	AggregateKBps float64 `json:"aggregate_kbps"`
	JainFairness  float64 `json:"jain_fairness"`
	// WallNS, Allocs and AllocBytes are the mean cost of one run of the
	// rung (the experiment's ns/op and allocs/op).
	WallNS     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// File is the BENCH_population.json layout: the repo's population perf
// trajectory, one record per benchmarked rung.
type File struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// GOMAXPROCS records the scheduler parallelism the measurement
	// actually ran under (runtime.GOMAXPROCS at measure time), which is
	// what wall-time comparability depends on; NumCPU is kept for older
	// baselines that recorded the static core count instead.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Records    []Record `json:"records"`
}

// Parallelism returns the recorded scheduler parallelism, falling back to
// the legacy static core count for baselines that predate GOMAXPROCS
// provenance.
func (f File) Parallelism() int {
	if f.GOMAXPROCS > 0 {
		return f.GOMAXPROCS
	}
	return f.NumCPU
}

// Find returns the record for a rung by client count.
func (f File) Find(clients int) (Record, bool) {
	for _, r := range f.Records {
		if r.Clients == clients {
			return r, true
		}
	}
	return Record{}, false
}

// Load reads a baseline file.
func Load(path string) (File, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(body, &f); err != nil {
		return File{}, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if len(f.Records) == 0 {
		return File{}, fmt.Errorf("benchgate: %s: no records", path)
	}
	return f, nil
}

// Regression is one metric on one rung that moved past the threshold in
// the bad direction.
type Regression struct {
	Clients  int
	Metric   string
	Baseline float64
	Current  float64
	// Ratio is current/baseline: >1 for cost metrics that grew, <1 for
	// goodput that shrank.
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("clients=%d %s: baseline %.4g -> current %.4g (%.2fx)",
		r.Clients, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// DefaultAllocThreshold is the stricter gate applied to allocation
// counts: they are deterministic (no scheduler noise), so 5% growth is
// already a real regression worth failing on.
const DefaultAllocThreshold = 0.05

// JainGateMinClients is the rung size from which the gate also holds the
// Jain fairness index. Fairness is a population property: on small rungs
// the index hovers near 1 and a drop means little, while the dense
// 256/1024 rungs are exactly where the historical collapse lived — a
// change that quietly re-concentrates goodput onto a few clients must
// fail the gate even when the aggregate stays flat.
const JainGateMinClients = 256

// Compare flags regressions of current against baseline. Aggregate
// goodput regresses when it drops by more than threshold — a perf gate
// should also catch "faster because it silently does less". Wall time is
// inherently noisy even as a mean of paired runs on a shared machine, so it
// gets twice the threshold: a real 2x slowdown still trips it, scheduler
// jitter does not. Allocation count and bytes are deterministic, so they
// gate on the separate, stricter allocThreshold (<=0 selects
// DefaultAllocThreshold). Rungs present in only one file are ignored:
// the ladder may grow over time. An error means the files are not
// comparable at all (different seed or scale measure different work).
func Compare(baseline, current File, threshold, allocThreshold float64) ([]Regression, error) {
	if allocThreshold <= 0 {
		allocThreshold = DefaultAllocThreshold
	}
	if baseline.Seed != current.Seed || baseline.Scale != current.Scale {
		return nil, fmt.Errorf(
			"benchgate: baseline (seed=%d scale=%g) and current (seed=%d scale=%g) measure different workloads",
			baseline.Seed, baseline.Scale, current.Seed, current.Scale)
	}
	var regs []Regression
	for _, base := range baseline.Records {
		cur, ok := current.Find(base.Clients)
		if !ok {
			continue
		}
		check := func(metric string, b, c float64, thr float64, costly bool) {
			if b <= 0 {
				return
			}
			ratio := c / b
			bad := costly && ratio > 1+thr || !costly && ratio < 1-thr
			if bad {
				regs = append(regs, Regression{
					Clients: base.Clients, Metric: metric,
					Baseline: b, Current: c, Ratio: ratio,
				})
			}
		}
		check("wall_ns", float64(base.WallNS), float64(cur.WallNS), 2*threshold, true)
		check("allocs", float64(base.Allocs), float64(cur.Allocs), allocThreshold, true)
		check("alloc_bytes", float64(base.AllocBytes), float64(cur.AllocBytes), allocThreshold, true)
		check("aggregate_kbps", base.AggregateKBps, cur.AggregateKBps, threshold, false)
		if base.Clients >= JainGateMinClients {
			check("jain_fairness", base.JainFairness, cur.JainFairness, threshold, false)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Clients != regs[j].Clients {
			return regs[i].Clients < regs[j].Clients
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, nil
}

// Report renders the gate outcome as text: every compared rung's verdict
// plus one line per regression.
func Report(baseline, current File, regs []Regression, threshold, allocThreshold float64) string {
	if allocThreshold <= 0 {
		allocThreshold = DefaultAllocThreshold
	}
	var b strings.Builder
	fmt.Fprintf(&b, "benchgate: threshold %.0f%% (allocs %.0f%%), baseline procs=%d current procs=%d\n",
		threshold*100, allocThreshold*100, baseline.Parallelism(), current.Parallelism())
	for _, base := range baseline.Records {
		cur, ok := current.Find(base.Clients)
		if !ok {
			fmt.Fprintf(&b, "clients=%-4d SKIP (no current measurement)\n", base.Clients)
			continue
		}
		fmt.Fprintf(&b, "clients=%-4d wall %.1fms -> %.1fms (%.2fx)  allocs %d -> %d (%d/client)  goodput %.1f -> %.1f KB/s  jain %.3f -> %.3f\n",
			base.Clients,
			float64(base.WallNS)/1e6, float64(cur.WallNS)/1e6,
			float64(cur.WallNS)/float64(base.WallNS),
			base.Allocs, cur.Allocs, cur.Allocs/uint64(max(base.Clients, 1)),
			base.AggregateKBps, cur.AggregateKBps,
			base.JainFairness, cur.JainFairness)
	}
	if len(regs) == 0 {
		b.WriteString("PASS: no metric regressed past the threshold\n")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d regression(s)\n", len(regs))
	for _, r := range regs {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}
