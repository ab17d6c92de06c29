package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() File {
	return File{
		Seed: 1, Scale: 0.05, NumCPU: 8,
		Records: []Record{
			{Clients: 1, AggregateKBps: 100, WallNS: 100e6, Allocs: 1000, AllocBytes: 1 << 20},
			{Clients: 8, AggregateKBps: 400, WallNS: 140e6, Allocs: 8000, AllocBytes: 8 << 20},
			{Clients: 64, AggregateKBps: 900, WallNS: 200e6, Allocs: 64000, AllocBytes: 64 << 20, JainFairness: 0.60},
			{Clients: 256, AggregateKBps: 700, WallNS: 300e6, Allocs: 128000, AllocBytes: 128 << 20, JainFairness: 0.50},
			{Clients: 1024, AggregateKBps: 500, WallNS: 500e6, Allocs: 256000, AllocBytes: 256 << 20, JainFairness: 0.40},
		},
	}
}

// TestFairnessRegressionTripsDenseRungs pins the fairness gate: a change
// that re-concentrates goodput onto a few clients — Jain drops while the
// aggregate stays flat — must fail at the dense 256/1024 rungs, where the
// historical collapse lived. Below JainGateMinClients the index is a
// small-sample number and must not gate.
func TestFairnessRegressionTripsDenseRungs(t *testing.T) {
	base := sample()
	cur := sample()
	// Synthetic fairness collapse: same aggregate, half the Jain index,
	// at one dense rung and one sparse rung.
	cur.Records[3].JainFairness = base.Records[3].JainFairness * 0.5 // clients=256
	cur.Records[2].JainFairness = base.Records[2].JainFairness * 0.5 // clients=64: under the gate floor
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Clients != 256 || regs[0].Metric != "jain_fairness" {
		t.Fatalf("want exactly the dense-rung jain_fairness regression, got %v", regs)
	}
	if regs[0].Ratio >= 1 {
		t.Errorf("fairness regression ratio %.2f should be < 1", regs[0].Ratio)
	}
	// Within-threshold drift at a dense rung must pass.
	cur = sample()
	cur.Records[4].JainFairness = base.Records[4].JainFairness * 0.90
	regs, err = Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("within-threshold jain drift flagged: %v", regs)
	}
}

func TestCompareCleanPass(t *testing.T) {
	base := sample()
	cur := sample()
	// Within-threshold jitter must not trip the gate; wall time gets
	// double the margin (scheduler noise), so 1.25x at a 15% gate is ok.
	cur.Records[0].WallNS = int64(float64(base.Records[0].WallNS) * 1.25)
	cur.Records[1].AggregateKBps = base.Records[1].AggregateKBps * 0.90
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("clean comparison flagged regressions: %v", regs)
	}
}

func TestCompareFlagsCostGrowth(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Records[2].WallNS = int64(float64(base.Records[2].WallNS) * 1.50)
	cur.Records[0].Allocs = uint64(float64(base.Records[0].Allocs) * 2)
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	if regs[0].Clients != 1 || regs[0].Metric != "allocs" {
		t.Errorf("unexpected first regression: %+v", regs[0])
	}
	if regs[1].Clients != 64 || regs[1].Metric != "wall_ns" {
		t.Errorf("unexpected second regression: %+v", regs[1])
	}
}

// TestPureAllocRegressionTripsStricterGate pins the split-threshold
// contract: an allocation-count regression too small for the 15% general
// gate must still fail through the stricter default alloc gate, because
// allocation counts are deterministic and every percent is a real
// hot-path regression.
func TestPureAllocRegressionTripsStricterGate(t *testing.T) {
	base := sample()
	cur := sample()
	// +8% allocations, everything else identical: inside the general 15%
	// margin, outside the 5% alloc margin.
	cur.Records[2].Allocs = uint64(float64(base.Records[2].Allocs) * 1.08)
	cur.Records[2].AllocBytes = uint64(float64(base.Records[2].AllocBytes) * 1.08)
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("want allocs+alloc_bytes regressions at the default %.0f%% alloc gate, got %v",
			DefaultAllocThreshold*100, regs)
	}
	for _, r := range regs {
		if r.Clients != 64 || (r.Metric != "allocs" && r.Metric != "alloc_bytes") {
			t.Errorf("unexpected regression %+v", r)
		}
	}
	// The same drift passes when the caller relaxes the alloc gate to the
	// general threshold — the strictness really comes from the separate
	// knob, not from a hardcoded limit.
	regs, err = Compare(base, cur, 0.15, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("relaxed alloc gate still flagged: %v", regs)
	}
}

func TestCompareFlagsGoodputLoss(t *testing.T) {
	base := sample()
	cur := sample()
	// Faster but delivering far less goodput is a regression too.
	cur.Records[1].WallNS = base.Records[1].WallNS / 2
	cur.Records[1].AggregateKBps = base.Records[1].AggregateKBps * 0.5
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "aggregate_kbps" {
		t.Fatalf("want one aggregate_kbps regression, got %v", regs)
	}
	if regs[0].Ratio >= 1 {
		t.Errorf("goodput regression ratio %.2f should be < 1", regs[0].Ratio)
	}
}

func TestCompareRejectsDifferentWorkload(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Scale = 0.5
	if _, err := Compare(base, cur, 0.15, 0); err == nil {
		t.Fatal("Compare accepted baselines of different workloads")
	}
}

func TestCompareIgnoresMissingRungs(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Records = cur.Records[:2] // ladder shrank; 64 has no counterpart
	regs, err := Compare(base, cur, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("missing rung flagged as regression: %v", regs)
	}
}

func TestLoadAndReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	// Baselines recorded before the derived per-client fields were
	// dropped still carry them; Load must ignore them.
	if err := os.WriteFile(path, []byte(`{"seed":1,"scale":0.05,"num_cpu":8,"records":[{"clients":1,"wall_ns":100000000,"ns_per_client":100000000,"allocs":1000,"alloc_bytes":1048576,"allocs_per_client":1000,"aggregate_kbps":100}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := f.Find(1); !ok || r.WallNS != 100e6 {
		t.Fatalf("Find(1) = %+v, %v", r, ok)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load accepted a missing file")
	}

	regs, err := Compare(f, f, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Report(f, f, regs, 0.15, 0); !strings.Contains(got, "PASS") {
		t.Errorf("self-comparison report not PASS:\n%s", got)
	}
	bad := f
	bad.Records = []Record{{Clients: 1, WallNS: 300e6, Allocs: 1000, AllocBytes: 1 << 20, AggregateKBps: 100}}
	regs, err = Compare(f, bad, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Report(f, bad, regs, 0.15, 0); !strings.Contains(got, "FAIL") || !strings.Contains(got, "wall_ns") {
		t.Errorf("regression report missing FAIL/wall_ns:\n%s", got)
	}
}
