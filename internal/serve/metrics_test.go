package serve

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spider/internal/sim"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/corridor_metrics.golden")

// corridorMetricSeries is how many series /v1/metrics exposes for the
// example corridor world: four phy, three driver, three dhcp, six ipam
// counters and gauges, one used-address gauge per pool (three), and two
// telemetry counters.
const corridorMetricSeries = 21

// openExampleCorridor opens a fresh server on examples/serve/corridor.json.
func openExampleCorridor(t *testing.T) *Server {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve", "corridor.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec := new(WorldSpec)
	if err := json.Unmarshal(b, spec); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func renderMetrics(srv *Server) string {
	return srv.Recorder().Metrics().RenderPrometheus()
}

// TestMetricsScrapeIsExact pins /v1/metrics as a read-time view of the
// layers' typed stats on the example corridor world: a mid-run scrape
// already equals what the same clock reads after Finalize settles the
// run, every series is exposed from t=0, and the end-of-run exposition
// matches the recorded golden byte for byte.
// Refresh with: go test ./internal/serve -run TestMetricsScrapeIsExact -update
func TestMetricsScrapeIsExact(t *testing.T) {
	for _, at := range []sim.Time{7 * time.Second, 13 * time.Second} {
		srv := openExampleCorridor(t)
		srv.Advance(at)
		live := renderMetrics(srv)
		srv.Scenario().Finalize()
		if settled := renderMetrics(srv); live != settled {
			t.Errorf("scrape at %v differs from the settled accounting at the same clock:\n--- live ---\n%s--- settled ---\n%s",
				at, live, settled)
		}
	}

	srv := openExampleCorridor(t)
	if n := strings.Count(renderMetrics(srv), "# TYPE "); n != corridorMetricSeries {
		t.Errorf("t=0 exposes %d series, want %d:\n%s", n, corridorMetricSeries, renderMetrics(srv))
	}
	srv.Advance(sim.Time(srv.Spec().HorizonNS))
	srv.Scenario().Finalize()
	got := renderMetrics(srv)
	golden := filepath.Join("testdata", "corridor_metrics.golden")
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("end-of-run exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
