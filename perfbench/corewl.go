package main

import (
	"fmt"
	"runtime"
	"time"

	"spider/internal/alloc"
	"spider/internal/core"
	"spider/internal/experiments"
	"spider/internal/obs"
)

// coreWorkload is a batch population scenario driven through core's
// incremental seam: NewScenario/AddClient/Start, StepUntil in 1 s
// sim-time quanta, then Finalize. build returns the world for one seed.
// engineShare is the share of the workload's CPU time spent in the sim
// engine (cpu.sim.share of its traced run, to a tenth); it weights the
// engine-shaped yardstick kernel (calib.go).
type coreWorkload struct {
	name        string
	build       func(seed int64) (core.WorldConfig, []core.ClientConfig)
	engineShare float64
}

// simDuration is the sim-time length of each core-workload world.
const simDuration = 120 * time.Second

// coreOptions scales the experiments' 5-minute population rungs to
// simDuration (the rung constructors floor-scale their duration).
func coreOptions(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Scale: float64(simDuration) / float64(5*time.Minute)}
}

var corridor1024 = coreWorkload{name: "corridor-1024", engineShare: 0.4, build: func(seed int64) (core.WorldConfig, []core.ClientConfig) {
	return experiments.PopulationDenseScenario(coreOptions(seed), 1024)
}}

var stripedOracle64 = coreWorkload{name: "striped-oracle-64", engineShare: 0.1, build: func(seed int64) (core.WorldConfig, []core.ClientConfig) {
	return experiments.FairnessScenario(coreOptions(seed), 64, alloc.Oracle)
}}

// round is one world's host-time measurements and its outcome.
type round struct {
	seed       int64
	setup      time.Duration
	steps      []time.Duration
	wall       time.Duration // set-up start to Finalize end, speed samples left out
	slow       float64       // host slowness over the round (speedProbe)
	mixSlow    float64       // the same per kernel, for the report
	wheelSlow  float64
	allocBytes uint64
	allocObjs  uint64
	peakHeap   uint64
	mem0, mem1 memSnap // runtime counters around the round
	out        outcome
	events     obs.Summary // per-kind event counts (traced rounds only)
}

func (r *round) setMem(m0, m1 memSnap) {
	r.mem0, r.mem1 = m0, m1
	r.allocBytes = m1.allocBytes - m0.allocBytes
	r.allocObjs = m1.allocObjs - m0.allocObjs
}

// stepping returns the host time spent inside the step calls.
func (r *round) stepping() time.Duration {
	var t time.Duration
	for _, d := range r.steps {
		t += d
	}
	return t
}

// sampleEvery is how many 1 s quanta pass between two speed samples.
const sampleEvery = 2

// runCoreRound builds, steps and finalizes one world. With tr set the
// calls are recorded as spans and an obs.Recorder is attached for
// per-kind event counts. With sp set the host's speed is sampled after
// set-up and every sampleEvery steps, outside the timed calls.
func runCoreRound(w coreWorkload, seed int64, tr *tracer, mp *memProbe, sp *speedProbe) (round, error) {
	r := round{seed: seed}
	world, clients := w.build(seed)
	if tr != nil {
		rec := obs.NewStreamingRecorder()
		rec.Subscribe(func(e obs.Event) {
			if int(e.Kind) < obs.NumKinds {
				r.events.Counts[e.Kind]++
			}
		})
		world.Obs = rec
	}
	runtime.GC()
	m0 := mp.read()
	tr.newTrace()
	root := tr.open("round", 0)

	t0 := time.Now()
	scn := core.NewScenario(world)
	for _, cc := range clients {
		scn.AddClient(cc)
	}
	scn.Start()
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	tr.record("core.setup", root, t0, t1)
	r.peakHeap = mp.heap()
	sampled := sp.sample()

	for t := quantum; t <= world.Duration; t += quantum {
		ts := time.Now()
		scn.StepUntil(t)
		te := time.Now()
		r.steps = append(r.steps, te.Sub(ts))
		tr.record("core.step", root, ts, te)
		if h := mp.heap(); h > r.peakHeap {
			r.peakHeap = h
		}
		if t/quantum%sampleEvery == 0 {
			sampled += sp.sample()
		}
	}

	tf := time.Now()
	results := scn.Finalize()
	te := time.Now()
	tr.record("core.finalize", root, tf, te)
	tr.close(root)
	r.wall = te.Sub(t0) - sampled
	r.slow = sp.slowness()
	r.mixSlow, r.wheelSlow = sp.kernelSlowness()

	r.setMem(m0, mp.read())
	if sp != nil {
		r.allocBytes -= sp.allocBytes
		r.allocObjs -= sp.allocObjs
	}
	if scn.Engine().Now() != world.Duration {
		return r, fmt.Errorf("seed %d: clock %v after stepping to %v", seed, scn.Engine().Now(), world.Duration)
	}
	out, err := readOutcome(scn, results)
	if err != nil {
		return r, fmt.Errorf("seed %d: %w", seed, err)
	}
	r.out = out
	return r, nil
}
