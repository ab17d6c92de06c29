package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spider/internal/benchgate"
)

// TestBenchGateFailsOnSkewedBaseline is the acceptance check for the
// gate's failure path: against a baseline whose costs are recorded as
// impossibly low (so the fresh measurement necessarily regresses past any
// threshold), runBenchGate must report failure — the bit main turns into
// a non-zero exit.
func TestBenchGateFailsOnSkewedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the population rungs")
	}
	const seed, scale = int64(1), 0.05
	fresh := measurePopulation(seed, scale)

	skewed := fresh
	skewed.Records = make([]benchgate.Record, len(fresh.Records))
	copy(skewed.Records, fresh.Records)
	for i := range skewed.Records {
		skewed.Records[i].WallNS /= 10
		skewed.Records[i].Allocs /= 10
		skewed.Records[i].AllocBytes /= 10
	}
	path := filepath.Join(t.TempDir(), "skewed.json")
	body, err := json.Marshal(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	report, ok, err := runBenchGate(path, seed, scale, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("gate passed against a 10x-skewed baseline:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("failing gate report lacks FAIL marker:\n%s", report)
	}
}

// TestBenchGatePassesAgainstSelf pins the complementary path: a baseline
// recorded by the same measurement on the same machine moments earlier
// passes a 15% gate (allocation counts are deterministic; wall time only
// sees same-machine noise).
func TestBenchGatePassesAgainstSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the population rungs twice")
	}
	const seed, scale = int64(1), 0.05
	path := filepath.Join(t.TempDir(), "base.json")
	if err := writePopulationBench(path, seed, scale); err != nil {
		t.Fatal(err)
	}
	report, ok, err := runBenchGate(path, seed, scale, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("gate failed against a just-recorded baseline:\n%s", report)
	}
}
