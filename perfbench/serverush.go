package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spider/internal/experiments"
	"spider/internal/mobility"
	"spider/internal/serve"
	"spider/internal/sim"
	"spider/internal/telemetry"
)

const (
	// rushArm is RushHourScenario's +failover+gc arm: shared IPAM with
	// backup-pool failover and lease GC.
	rushArm = 2
	// rushScale halves the study's rush hour (150 vehicles over 5
	// sim-minutes), so a run drives enough distinct hours that its host
	// time does not follow one seed's arrival schedule.
	rushScale = 0.5
	// rushEngineShare is serve-rush's cpu.sim.share to a tenth (see
	// coreWorkload.engineShare).
	rushEngineShare = 0.1
	// scrapeEvery is the sim-time period of the read path.
	scrapeEvery = 10 * quantum
	// scrapeLast is how many closed rollup windows a scrape returns.
	scrapeLast = 10
)

// rushInputs is the serve-rush world spec plus its arrival schedule:
// vehicle i is admitted as an add-client intent that applies at
// arrivals[i] (the rush-hour study's departure stagger).
type rushInputs struct {
	spec     *serve.WorldSpec
	vehicles []serve.ClientSpec
	arrivals []sim.Time
}

// rushHourInputs converts experiments.RushHourScenario at rushScale
// (150 join-only vehicles over 5 sim-minutes) into serve inputs.
func rushHourInputs(seed int64) (rushInputs, error) {
	world, clients := experiments.RushHourScenario(experiments.Options{Seed: seed, Scale: rushScale}, rushArm)
	in := rushInputs{spec: &serve.WorldSpec{
		Seed:      world.Seed,
		HorizonNS: int64(world.Duration),
		Sites:     world.Sites,
		AP:        world.AP,
		IPAM:      world.IPAM,
	}}
	for _, c := range clients {
		wp, ok := c.Mobility.(*mobility.Waypoints)
		if !ok {
			return in, fmt.Errorf("vehicle %d: route is %T, want waypoints", c.ID, c.Mobility)
		}
		in.vehicles = append(in.vehicles, serve.ClientSpec{
			ID:             c.ID,
			PrimaryChannel: int(c.PrimaryChannel),
			DisableTraffic: c.DisableTraffic,
			Route:          serve.RouteSpec{Points: wp.Route(), SpeedMPS: wp.Speed()},
		})
		in.arrivals = append(in.arrivals, c.StartOffset)
	}
	return in, nil
}

// rushRound is one serve-rush pass: a live run, then maybe a recovery.
type rushRound struct {
	round    // live phase: steps are the Advance calls
	acks     []time.Duration
	scrapes  []time.Duration
	recovery time.Duration // 0 when the round did not recover
	replayed uint64        // intents the recovery replayed
	checks   []string
}

// openSamples times n extra serve.Open calls on fresh state directories
// (each closed at once), so set-up time has a median of its own.
func openSamples(spec *serve.WorldSpec, dir string, n int) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < n; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
		runtime.GC()
		t0 := time.Now()
		srv, err := serve.Open(dir, spec)
		d := time.Since(t0)
		if err != nil {
			return out, err
		}
		out = append(out, d)
		if err := srv.Close(); err != nil {
			return out, err
		}
	}
	return out, os.RemoveAll(dir)
}

// runRushRound drives one live rush hour through serve.Server, then
// checkpoints and closes it. With withRecovery set it also re-opens the state
// directory (restore by WAL replay) and compares the recovered world with
// the live one. With sp set the host's speed is sampled after Open and
// every sampleEvery quanta, outside the timed calls.
func runRushRound(in rushInputs, dir string, tr *tracer, mp *memProbe, sp *speedProbe, withRecovery bool) (rushRound, error) {
	var r rushRound
	r.seed = in.spec.Seed
	horizon := sim.Time(in.spec.HorizonNS)

	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	runtime.GC()
	m0 := mp.read()
	tr.newTrace()
	root := tr.open("round", 0)

	t0 := time.Now()
	srv, err := serve.Open(dir, in.spec)
	t1 := time.Now()
	if err != nil {
		return r, err
	}
	r.setup = t1.Sub(t0)
	tr.record("serve.open", root, t0, t1)
	r.peakHeap = mp.heap()
	sampled := sp.sample()

	var scrape bytes.Buffer
	next := 0
	for t := quantum; t <= horizon; t += quantum {
		for next < len(in.arrivals) && in.arrivals[next] < t {
			intent := serve.Intent{Kind: serve.IntentAddClient, Client: &in.vehicles[next]}
			ts := time.Now()
			_, err := srv.Accept(intent, in.arrivals[next]-srv.Now())
			te := time.Now()
			if err != nil {
				srv.Close()
				return r, fmt.Errorf("accept vehicle %d: %w", next, err)
			}
			r.acks = append(r.acks, te.Sub(ts))
			tr.record("serve.accept", root, ts, te)
			next++
		}
		ts := time.Now()
		srv.Advance(t)
		te := time.Now()
		r.steps = append(r.steps, te.Sub(ts))
		tr.record("serve.advance", root, ts, te)
		if t%scrapeEvery == 0 {
			ts := time.Now()
			scrape.Reset()
			if err := scrapeOnce(srv, &scrape); err != nil {
				srv.Close()
				return r, err
			}
			te := time.Now()
			r.scrapes = append(r.scrapes, te.Sub(ts))
			tr.record("serve.scrape", root, ts, te)
		}
		if h := mp.heap(); h > r.peakHeap {
			r.peakHeap = h
		}
		if t/quantum%sampleEvery == 0 {
			sampled += sp.sample()
		}
	}
	tc := time.Now()
	if err := srv.Checkpoint(); err != nil {
		srv.Close()
		return r, err
	}
	if err := srv.Close(); err != nil {
		return r, err
	}
	te := time.Now()
	tr.record("serve.checkpoint", root, tc, te)
	r.wall = te.Sub(t0) - sampled
	r.slow = sp.slowness()
	r.mixSlow, r.wheelSlow = sp.kernelSlowness()
	r.setMem(m0, mp.read())
	if sp != nil {
		r.allocBytes -= sp.allocBytes
		r.allocObjs -= sp.allocObjs
	}

	var recDigest uint64
	if withRecovery {
		if recDigest, err = r.recoverAndCompare(srv, dir, len(in.vehicles), tr, root); err != nil {
			return r, err
		}
	}
	tr.close(root)
	live, err := readOutcome(srv.Scenario(), srv.Scenario().Finalize())
	if err != nil {
		return r, fmt.Errorf("live world: %w", err)
	}
	if withRecovery && live.digest() != recDigest {
		r.checks = append(r.checks, fmt.Sprintf("outcome digest: live %016x, recovered %016x", live.digest(), recDigest))
	}
	r.out = live
	r.events = srv.Recorder().Summary()
	return r, nil
}

// recoverAndCompare re-opens the closed server's state directory, as a
// restarted process would (the world is rebuilt from the spec and every
// intent replayed), times it, and compares the recovered server with the
// live one. It returns the recovered world's outcome digest. The live
// server must not be finalized yet: Finalize closes the last telemetry
// window, which would change its rollup export.
func (r *rushRound) recoverAndCompare(live *serve.Server, dir string, admitted int, tr *tracer, root int) (uint64, error) {
	liveRollups, err := rollupDigest(live.Telemetry())
	if err != nil {
		return 0, err
	}
	ts := time.Now()
	rec, err := serve.Open(dir, nil)
	te := time.Now()
	if err != nil {
		return 0, fmt.Errorf("re-open: %w", err)
	}
	defer rec.Close()
	r.recovery = te.Sub(ts)
	tr.record("serve.recover", root, ts, te)
	r.replayed = rec.Applied()

	recRollups, err := rollupDigest(rec.Telemetry())
	if err != nil {
		return 0, err
	}
	if rec.Now() != live.Now() {
		r.checks = append(r.checks, fmt.Sprintf("recovered clock %v != live %v", rec.Now(), live.Now()))
	}
	if rec.Applied() != live.Applied() || live.Applied() != uint64(admitted) {
		r.checks = append(r.checks, fmt.Sprintf("applied: live %d, recovered %d, admitted %d",
			live.Applied(), rec.Applied(), admitted))
	}
	if recRollups != liveRollups {
		r.checks = append(r.checks, fmt.Sprintf("rollup JSONL digest: live %016x, recovered %016x", liveRollups, recRollups))
	}
	again, err := readOutcome(rec.Scenario(), rec.Scenario().Finalize())
	if err != nil {
		return 0, fmt.Errorf("recovered world: %w", err)
	}
	return again.digest(), nil
}

// scrapeOnce is the read path a /v1/metrics plus /v1/rollups?last=N
// poller costs the loop: the Prometheus rendering and the JSON body of
// the last N closed windows.
func scrapeOnce(srv *serve.Server, w *bytes.Buffer) error {
	w.WriteString(srv.Recorder().Metrics().RenderPrometheus())
	tel := srv.Telemetry()
	wins := tel.Windows()
	if len(wins) > scrapeLast {
		wins = wins[len(wins)-scrapeLast:]
	}
	return json.NewEncoder(w).Encode(struct {
		Windows []telemetry.Window       `json:"windows"`
		Flight  telemetry.FlightCounters `json:"flight"`
	}{wins, tel.FlightCounters()})
}

// rollupDigest hashes the telemetry rollup JSONL export.
func rollupDigest(tel *telemetry.Aggregator) (uint64, error) {
	h := fnv.New64a()
	if err := tel.WriteJSONL(h, "serve-rush"); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// stateDir is the serve state directory of one run, inside the
// benchmark's build directory.
func stateDir(buildDir string) string {
	return filepath.Join(buildDir, fmt.Sprintf("serve-state-%d", os.Getpid()))
}
