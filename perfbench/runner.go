package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"spider/internal/obs"
)

// Worlds pooled into one run. Join latency tails on the collapsed
// corridor rest on ~20 completed joins per world, so it pools many
// worlds. The striped corridor completes ~1000 joins per world, but one
// world's host time depends on its seed, and 4 worlds a run left 9%
// between runs. serve-rush pools rush hours for the same reason.
const (
	corridorWorlds = 32
	stripedWorlds  = 16
	serveWorlds    = 8
)

// serve-rush set-up is well under a millisecond and includes an fsync,
// so its median needs many samples: serveSetupReps extra fresh
// serve.Open calls are timed besides each round's own.
const serveSetupReps = 31

// roundLoop runs rounds until the measurement time is used: at least
// minRounds, then more while another round of average length still fits.
// In a traced run every second round is traced, and the CPU profile
// covers the traced rounds only.
type roundLoop struct {
	cfg       config
	minRounds int
	start     time.Time
	busy      time.Duration
	n         int
	cpu       cpuSelf
}

func newRoundLoop(cfg config, minRounds int) *roundLoop {
	// A traced run needs untraced rounds on both sides of a traced one,
	// so a cold first round does not bias the overhead estimate.
	if cfg.trace && minRounds < 3 {
		minRounds = 3
	}
	return &roundLoop{cfg: cfg, minRounds: minRounds, start: time.Now(), cpu: cpuSelf{}}
}

// next reports whether to run round s.n, and whether it is traced.
func (s *roundLoop) next() (bool, bool) {
	if s.n >= s.minRounds {
		avg := s.busy / time.Duration(s.n)
		if time.Since(s.start)+avg > time.Duration(s.cfg.seconds*float64(time.Second)) {
			return false, false
		}
	}
	return true, s.cfg.trace && s.n%2 == 1
}

// run executes one round, profiling it when traced.
func (s *roundLoop) run(traced bool, body func() error) error {
	t0 := time.Now()
	defer func() { s.busy += time.Since(t0); s.n++ }()
	if !traced {
		return body()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := body()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return s.cpu.add(prof.Bytes())
}

// probeFor returns a fresh speed probe for a round of an untraced run,
// and none in a traced run: its figures are per-layer and raw, and its
// untraced rounds must match its traced ones for trace.overhead_frac.
func probeFor(k *refKernel, cfg config, engineShare float64) *speedProbe {
	if cfg.trace {
		return nil
	}
	return newSpeedProbe(k, engineShare)
}

// runCore measures a core workload: each round is one world, the first
// `worlds` rounds use distinct seeds derived from --seed, and later
// rounds repeat them, so every repeat is checked against its first run.
// An untimed warm-up round of world 0 comes first; it fills the heap and
// caches, and round 0 must reproduce it.
func runCore(w coreWorkload, cfg config, rep *report) error {
	worlds := corridorWorlds
	if w.name == stripedOracle64.name {
		worlds = stripedWorlds
	}
	ref := newRefKernel()
	mp := newMemProbe()
	tr := newTracer()
	loop := newRoundLoop(cfg, worlds+1)
	warm, err := runCoreRound(w, subSeed(cfg.seed, 0), nil, mp, nil)
	rep.attempted += 2 + len(warm.steps)
	if err != nil {
		return err
	}
	var plain, traced []round
	first := make([]outcome, worlds)
	for {
		more, isTraced := loop.next()
		if !more {
			break
		}
		i := loop.n
		err := loop.run(isTraced, func() error {
			var t *tracer
			if isTraced {
				t = tr
			}
			r, err := runCoreRound(w, subSeed(cfg.seed, i%worlds), t, mp, probeFor(ref, cfg, w.engineShare))
			rep.attempted += 2 + len(r.steps)
			if err != nil {
				return err
			}
			d0 := warm.out.digest()
			if i >= worlds {
				d0 = first[i%worlds].digest()
			} else {
				first[i] = r.out
			}
			if d1 := r.out.digest(); (i == 0 || i >= worlds) && d1 != d0 {
				rep.fail("world %d (seed %d): repeat digest %016x != first %016x", i%worlds, r.seed, d1, d0)
			}
			if isTraced {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	m := pool(first)
	rep.note("%s: warm-up + %d rounds (%d untraced) over %d distinct worlds of %v sim-time, %d clients each",
		w.name, loop.n, len(plain), worlds, simDuration, first[0].Clients)
	if !cfg.trace {
		hostMetrics(rep, nil, plain)
		modelMetrics(rep, m)
		rep.note("data plane (not gated): goodput %.4g kb/s, jain %.4g, connectivity %.4g over %d clients",
			m.goodputKbps, m.jain, m.connectivity, len(first)*first[0].Clients)
		return nil
	}
	var events obs.Summary
	for _, r := range traced {
		events.Add(r.events)
	}
	serveFigures(rep, nil, nil, nil, 0) // no serve layer in this workload
	ledger(rep, worlds, sumOutcomes(first), m, plain, traced, events, tr, loop.cpu, cfg)
	return nil
}

// runServeRush measures serve-rush: rounds of one live rush hour each,
// over serveWorlds distinct worlds derived from --seed, repeated in
// order. An untimed warm-up round of world 0 comes first and also
// recovers (as does every traced round), since a recovery costs as much
// as the live hour and its time is not an end-to-end metric; round 0
// must reproduce the warm-up.
func runServeRush(cfg config, rep *report) error {
	ins := make([]rushInputs, serveWorlds)
	for k := range ins {
		var err error
		if ins[k], err = rushHourInputs(subSeed(cfg.seed, k)); err != nil {
			return err
		}
	}
	dir := stateDir(cfg.outDir)
	defer os.RemoveAll(dir)
	ref := newRefKernel()
	mp := newMemProbe()
	tr := newTracer()

	opens, err := openSamples(ins[0].spec, dir, serveSetupReps)
	rep.attempted += len(opens)
	if err != nil {
		return err
	}
	loop := newRoundLoop(cfg, serveWorlds)
	warm, err := runRushRound(ins[0], dir, nil, mp, nil, true)
	rep.attempted += 4 + len(warm.acks) + len(warm.steps) + len(warm.scrapes)
	if err != nil {
		return err
	}
	for _, c := range warm.checks {
		rep.fail("warm-up round: %s", c)
	}
	recovers := []float64{secs(warm.recovery)}
	var plain, traced []rushRound
	first := make([]outcome, serveWorlds)
	for {
		more, isTraced := loop.next()
		if !more {
			break
		}
		i := loop.n
		err := loop.run(isTraced, func() error {
			var t *tracer
			if isTraced {
				t = tr
			}
			r, err := runRushRound(ins[i%serveWorlds], dir, t, mp, probeFor(ref, cfg, rushEngineShare), isTraced)
			rep.attempted += 3 + len(r.acks) + len(r.steps) + len(r.scrapes)
			if err != nil {
				return err
			}
			for _, c := range r.checks {
				rep.fail("round %d: %s", i, c)
			}
			d0 := warm.out.digest()
			if i >= serveWorlds {
				d0 = first[i%serveWorlds].digest()
			} else {
				first[i] = r.out
			}
			if d1 := r.out.digest(); (i == 0 || i >= serveWorlds) && d1 != d0 {
				rep.fail("round %d (world %d): repeat digest %016x != first %016x", i, i%serveWorlds, d1, d0)
			}
			if r.recovery > 0 {
				recovers = append(recovers, secs(r.recovery))
			}
			if isTraced {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	var acks, scrapes []time.Duration
	var live []round
	for _, r := range plain {
		acks = append(acks, r.acks...)
		scrapes = append(scrapes, r.scrapes...)
		live = append(live, r.round)
	}
	m := pool(first)
	rep.note("serve-rush: warm-up + %d rounds (%d untraced) over %d distinct worlds, %d vehicles each admitted over %v sim-time, recovery replays %d intents",
		loop.n, len(plain), serveWorlds, len(ins[0].vehicles), time.Duration(ins[0].spec.HorizonNS), warm.replayed)
	serveNotes(rep, acks, scrapes, recovers)
	if !cfg.trace {
		hostMetrics(rep, opens, live)
		modelMetrics(rep, m)
		return nil
	}
	var events obs.Summary
	var tracedRounds []round
	for _, r := range traced {
		events.Add(r.events)
		tracedRounds = append(tracedRounds, r.round)
	}
	serveFigures(rep, acks, scrapes, recovers, warm.replayed)
	ledger(rep, serveWorlds, sumOutcomes(first), m, live, tracedRounds, events, tr, loop.cpu, cfg)
	return nil
}

// serveFigures sets the per-layer figures only serve-rush produces;
// other workloads pass no samples and report them as 0.
func serveFigures(rep *report, acks, scrapes []time.Duration, recovers []float64, replayed uint64) {
	rep.set("serve.intent_ack_p50_ms", "ms", ms(qdur(acks, 0.50)))
	rep.set("serve.intent_ack_p95_ms", "ms", ms(qdur(acks, 0.95)))
	rep.set("serve.scrape_p95_ms", "ms", ms(qdur(scrapes, 0.95)))
	rep.set("serve.recover_s", "s", median(recovers))
	rep.set("serve.replay_intents_per_s", "1/s", ratio(float64(replayed), median(recovers)))
}

// serveNotes prints serve-rush's own latency figures with sample counts.
func serveNotes(rep *report, acks, scrapes []time.Duration, recovers []float64) {
	rep.note("intent_ack: p50 %.4g ms, p95 %.4g ms (n=%d Accept calls, WAL fsync included)",
		ms(qdur(acks, 0.50)), ms(qdur(acks, 0.95)), len(acks))
	rep.note("scrape: p50 %.4g ms, p95 %.4g ms (n=%d metrics+rollups reads)",
		ms(qdur(scrapes, 0.50)), ms(qdur(scrapes, 0.95)), len(scrapes))
	rep.note("recover: median %.4g s (n=%d re-Opens replaying the WAL)", median(recovers), len(recovers))
}

// hostMetrics sets the host-time end-to-end metrics from untraced
// rounds. Round and step times are divided by the host slowness measured
// in their round (calib.go), so they read as at the reference speed; the
// raw figures are printed beside them. Step percentiles are taken per
// round and their median over rounds is reported, so a few rounds the
// slowness under-corrects cannot carry the tail. Set-up time is divided
// by the square root of the slowness: it is allocation (and, on
// serve-rush, fsync) work that moves with the host less than stepping
// does. Over ten corridor-1024 runs at slowness 1.2–2.1 its log-log slope
// was 0.26, and dividing by slowness to the power 0, 0.25, 0.5 and 1 left
// spreads of 8.6%, 4.5%, 7.4% and 23%; left raw, its median moved 30%
// between two ten-run sets an hour apart. extraSetups are set-up samples
// taken outside the rounds; they take the run's median slowness.
func hostMetrics(rep *report, extraSetups []time.Duration, rounds []round) {
	var rate, rawRate, alloc, peak, slow, mixSlow, wheelSlow, p50, p90 []float64
	var setups, rawSetups, rawSteps []time.Duration
	for _, r := range rounds {
		rawRate = append(rawRate, r.out.SimSecs/secs(r.wall))
		rate = append(rate, r.out.SimSecs/secs(r.wall)*r.slow)
		alloc = append(alloc, float64(r.allocBytes)/1e6)
		peak = append(peak, float64(r.peakHeap)/1e6)
		slow = append(slow, r.slow)
		mixSlow = append(mixSlow, r.mixSlow)
		wheelSlow = append(wheelSlow, r.wheelSlow)
		rawSetups = append(rawSetups, r.setup)
		setups = append(setups, time.Duration(float64(r.setup)/math.Sqrt(r.slow)))
		rawSteps = append(rawSteps, r.steps...)
		p50 = append(p50, ms(qdur(r.steps, 0.50))/r.slow)
		p90 = append(p90, ms(qdur(r.steps, 0.90))/r.slow)
	}
	for _, d := range extraSetups {
		rawSetups = append(rawSetups, d)
		setups = append(setups, time.Duration(float64(d)/math.Sqrt(median(slow))))
	}
	rep.set("setup_s", "s", secs(qdur(setups, 0.5)))
	rep.set("sim_rate", "sim-s/s", median(rate))
	rep.set("step_p50_ms", "ms", median(p50))
	rep.set("step_p90_ms", "ms", median(p90))
	rep.set("alloc_mb", "MB", median(alloc))
	rep.set("peak_heap_mb", "MB", median(peak))
	rep.note("samples: setup n=%d, steps n=%d (1 sim-s each) in rounds n=%d (sim_rate, step percentiles, alloc_mb, peak_heap_mb are per-round medians)",
		len(setups), len(rawSteps), len(rounds))
	rep.note("host slowness: median %.4g, min %.4g, max %.4g over %d rounds; median mix %.4g, wheel %.4g (reference sample %v mix + %v wheel)",
		median(slow), quantile(slow, 0), quantile(slow, 1), len(slow), median(mixSlow), median(wheelSlow), refMixNominal, refWheelNominal)
	rep.note("raw host time (not gated): sim_rate %.4g sim-s/s, step p50 %.4g ms, step p90 %.4g ms, setup %.4g s",
		median(rawRate), ms(qdur(rawSteps, 0.50)), ms(qdur(rawSteps, 0.90)), secs(qdur(rawSetups, 0.5)))
}

// modelMetrics sets the modelled, sim-time end-to-end metrics.
func modelMetrics(rep *report, m modelled) {
	rep.set("link_uptime", "fraction", m.linkUptime)
	rep.set("join_p50_s", "s", m.joinP50)
	rep.set("join_p95_s", "s", m.joinP95)
	rep.set("join_success", "fraction", m.joinSuccess)
	rep.note("joins: %d completed (join_p50_s/join_p95_s sample count)", m.joins)
}

// qdur is quantile over durations.
func qdur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// ledger sets every per-layer metric (the traced run's output) and
// prints the ledger table with each ratio's numerator and denominator.
// t sums the counters of the run's distinct worlds; plain and traced are
// the untraced and traced rounds, interleaved in time.
func ledger(rep *report, worlds int, t outcome, m modelled, plain, traced []round, events obs.Summary,
	tr *tracer, cpu cpuSelf, cfg config) {
	ratioNote := func(name string, num, den float64) float64 {
		v := ratio(num, den)
		rep.note("%-28s %12.6g = %.6g / %.6g", name, v, num, den)
		return v
	}
	rep.note("ledger over %d world(s), %.0f sim-s:", worlds, t.SimSecs)

	// sim: events fired, and host ns per event inside the step calls.
	var stepNS, fired float64
	for _, r := range plain {
		stepNS += float64(r.stepping())
		fired += float64(r.out.EventsFired)
	}
	rep.set("sim.events_fired", "count", float64(t.EventsFired))
	rep.set("sim.ns_per_event", "ns", ratioNote("sim.ns_per_event", stepNS, fired))

	// phy.
	rep.set("phy.frames_sent", "count", float64(t.FramesSent))
	// Receptions per transmission: a broadcast counts once per receiver.
	rep.set("phy.delivery_ratio", "rx/tx", ratioNote("phy.delivery_ratio", float64(t.Delivered), float64(t.FramesSent)))
	rep.set("phy.collision_ratio", "fraction", ratioNote("phy.collision_ratio", float64(t.Collisions), float64(t.FramesSent)))
	rep.set("phy.unicast_failed", "count", float64(t.UnicastFailed))
	chs := make([]int, 0, len(t.AirtimeNS))
	for ch := range t.AirtimeNS {
		chs = append(chs, ch)
	}
	sort.Ints(chs)
	for _, ch := range chs {
		ratioNote(fmt.Sprintf("phy.backlog_ratio ch%d", ch), float64(t.AirtimeNS[ch])/1e9, t.SimSecs)
	}
	rep.set("phy.backlog_ratio", "fraction", t.backlogRatio())

	// driver.
	rep.set("driver.switches", "count", float64(t.Switches))
	rep.set("driver.probes_sent", "count", float64(t.ProbesSent))
	rep.set("driver.txq_drop_ratio", "fraction", ratioNote("driver.txq_drop_ratio", float64(t.TxDrops), float64(t.TxQueued)))

	// lmm.
	rep.set("lmm.joins_started", "count", float64(t.JoinsStarted))
	rep.set("lmm.join_complete_ratio", "fraction",
		ratioNote("lmm.join_complete_ratio", float64(t.JoinsDone), float64(t.JoinsStarted)))
	rep.set("lmm.assoc_failures", "count", float64(t.FailAssoc))
	rep.set("lmm.dhcp_failures", "count", float64(t.FailDHCP))
	rep.set("lmm.ping_failures", "count", float64(t.FailPing))
	rep.set("lmm.cache_hits", "count", float64(t.CacheHits))

	// dhcp / ipam.
	rep.set("dhcp.pool_refusals", "count", float64(t.PoolRefusals))
	rep.set("ipam.allocs", "count", float64(t.IPAMAllocs))
	rep.set("ipam.failovers", "count", float64(t.IPAMFailovers))
	rep.set("ipam.reclaims", "count", float64(t.IPAMReclaimed))
	rep.set("ipam.refusals", "count", float64(t.IPAMRefused))

	// tcpsim / alloc outcomes (the data-plane results).
	rep.set("tcpsim.goodput_kbps", "kb/s", m.goodputKbps)
	rep.set("tcpsim.connectivity", "fraction", m.connectivity)
	rep.set("alloc.jain", "index", m.jain)

	// telemetry / obs.
	rep.set("telemetry.windows", "count", float64(t.TelWindows))
	rep.set("telemetry.flight_sampled_out", "count", float64(t.SampledOut))
	rep.set("telemetry.flight_evicted", "count", float64(t.Evicted))
	rep.set("obs.events_per_round", "count", ratio(float64(events.Total()), float64(len(traced))))
	for k := obs.Kind(0); int(k) < len(events.Counts); k++ {
		if c := events.Counts[k]; c > 0 {
			rep.note("obs events %-24s %10d over %d traced round(s)", k, c, len(traced))
		}
	}

	// Micro-probes of public functions.
	probes, err := runProbes(cfg.outDir, newMemProbe())
	if err != nil {
		rep.fail("micro-probes: %v", err)
	}
	for _, p := range probes {
		rep.set(p.name+"_"+p.unit, p.unit, p.perOp)
		rep.set(p.name+"_allocs", "allocs/op", p.allocs)
		rep.note("probe %-26s %10.4g %s/op %8.4g allocs/op (base %d ops, median of %d)",
			p.name, p.perOp, p.unit, p.allocs, p.ops, microReps)
	}

	// Spans: self time per call, per name.
	self, cnt := tr.selfTimes(), tr.counts()
	for _, n := range spanNames {
		rep.set("span."+n+".self_ms", "ms", ratio(ms(self[n]), float64(cnt[n])))
	}
	rep.notes = append(rep.notes, tr.spanTable()...)
	if err := tr.writeJSONL(artifact(cfg, "-spans.jsonl")); err != nil {
		rep.fail("span export: %v", err)
	} else {
		rep.note("spans: %d written to %s", len(tr.spans), artifact(cfg, "-spans.jsonl"))
	}

	// Go runtime, per untraced round.
	var objs, gcs, pause, gcCPU, totalCPU []float64
	for _, r := range plain {
		objs = append(objs, float64(r.allocObjs))
		gcs = append(gcs, float64(r.mem1.gcCycles-r.mem0.gcCycles))
		pause = append(pause, (r.mem1.gcPauseSecs-r.mem0.gcPauseSecs)*1e3)
		gcCPU = append(gcCPU, r.mem1.gcCPUSecs-r.mem0.gcCPUSecs)
		totalCPU = append(totalCPU, r.mem1.totalCPUSecs-r.mem0.totalCPUSecs)
	}
	rep.set("go.allocs", "count", median(objs))
	rep.set("go.gc_cycles", "count", median(gcs))
	rep.set("go.gc_pause_ms", "ms", median(pause))
	rep.set("go.gc_cpu_frac", "fraction", ratioNote("go.gc_cpu_frac", sum(gcCPU), sum(totalCPU)))

	// Tracing overhead: traced against untraced rounds of the same run.
	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, secs(r.wall))
	}
	for _, r := range traced {
		tw = append(tw, secs(r.wall))
	}
	rep.set("trace.overhead_frac", "fraction", median(tw)/median(pw)-1)
	rep.note("trace.overhead_frac: median traced round %.4g s vs untraced %.4g s (n=%d, %d)",
		median(tw), median(pw), len(tw), len(pw))

	// CPU self time per package, from the traced rounds' profiles.
	shares, total := cpu.shares()
	for _, p := range cpuPackages {
		rep.set("cpu."+p+".share", "fraction", shares[p])
		rep.note("cpu %-10s %6.2f%% of %.4g s sampled", p, 100*shares[p], float64(total)/1e9)
	}
}

// spanNames are the spans the benchmark records around its calls.
var spanNames = []string{"round", "core.setup", "core.step", "core.finalize", "serve.open",
	"serve.accept", "serve.advance", "serve.scrape", "serve.checkpoint", "serve.recover"}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
