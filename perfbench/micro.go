package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spider/internal/dot11"
	"spider/internal/geo"
	"spider/internal/ipam"
	"spider/internal/ipnet"
	"spider/internal/obs"
	"spider/internal/opt"
	"spider/internal/serve"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/telemetry"
)

// probe is one micro-measurement of a package's public function: the
// median over reps of the per-op time, and allocations per op, each
// over ops operations (the base).
type probe struct {
	name   string
	unit   string // "ns" or "us"
	ops    int
	perOp  float64
	allocs float64
}

// microReps is how many times each probe body runs; the median is kept.
const microReps = 5

// measure runs body microReps times. body performs ops operations and
// returns the part of its wall time that is the measured operation
// (bodies with set-up exclude it).
func measure(name, unit string, ops int, mp *memProbe, body func() time.Duration) probe {
	body() // warm caches and lazily sized buffers
	var per []float64
	runtime.GC()
	m0 := mp.read()
	for i := 0; i < microReps; i++ {
		d := body()
		per = append(per, float64(d)/float64(ops))
	}
	m1 := mp.read()
	p := probe{name: name, unit: unit, ops: ops,
		allocs: float64(m1.allocObjs-m0.allocObjs) / float64(ops*microReps)}
	p.perOp = median(per)
	if unit == "us" {
		p.perOp /= 1e3
	}
	return p
}

// sink keeps probe results observable so the compiler keeps the calls.
var sink int

// runProbes measures every layer's micro-probe. dir is a scratch
// directory for the WAL probe.
func runProbes(dir string, mp *memProbe) ([]probe, error) {
	var ps []probe

	// sim: schedule-then-fire and cancel on a bare engine.
	const simOps = 200000
	ps = append(ps, measure("sim.schedule_fire", "ns", simOps, mp, func() time.Duration {
		eng := sim.NewEngine()
		fn := func() { sink++ }
		t0 := time.Now()
		for i := 0; i < simOps; i++ {
			eng.Schedule(sim.Time(i%5000)*sim.Time(time.Microsecond), fn)
		}
		eng.RunAll()
		return time.Since(t0)
	}))
	evs := make([]*sim.Event, simOps)
	ps = append(ps, measure("sim.cancel", "ns", simOps, mp, func() time.Duration {
		eng := sim.NewEngine()
		fn := func() { sink++ }
		for i := range evs {
			evs[i] = eng.Schedule(sim.Time(i%5000)*sim.Time(time.Microsecond), fn)
		}
		t0 := time.Now()
		for _, ev := range evs {
			eng.Cancel(ev)
		}
		return time.Since(t0)
	}))

	// dot11: data-frame encode + decode (FCS both ways).
	const codecOps = 100000
	frame := dot11.Frame{Type: dot11.TypeData, Addr1: dot11.MAC(1), Addr2: dot11.MAC(2), Addr3: dot11.MAC(3), Body: make([]byte, 1460)}
	wire := make([]byte, 0, frame.WireLen())
	ps = append(ps, measure("dot11.frame_codec", "ns", codecOps, mp, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < codecOps; i++ {
			frame.Seq = uint16(i)
			wire = frame.AppendTo(wire[:0])
			f, err := dot11.Decode(wire)
			if err == nil {
				sink += int(f.Seq)
			}
		}
		return time.Since(t0)
	}))

	// tcpsim: segment encode + decode, and a sender→receiver loopback.
	seg := tcpsim.Segment{Flags: tcpsim.FlagACK, Payload: 1460}
	segBuf := make([]byte, 0, seg.WireLen())
	ps = append(ps, measure("tcpsim.segment_codec", "ns", codecOps, mp, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < codecOps; i++ {
			seg.Seq = uint32(i)
			segBuf = seg.AppendTo(segBuf[:0])
			s, err := tcpsim.DecodeSegment(segBuf)
			if err == nil {
				sink += int(s.Seq)
			}
		}
		return time.Since(t0)
	}))
	const pathBytes = 40 << 20
	segments := 0
	path := func() time.Duration {
		eng := sim.NewEngine()
		const delay = sim.Time(2 * time.Millisecond)
		var snd *tcpsim.Sender
		var rcv *tcpsim.Receiver
		rcv = tcpsim.NewReceiver(eng, func(s tcpsim.Segment) {
			eng.Schedule(delay, func() { snd.Deliver(s) })
		}, nil)
		snd = tcpsim.NewSender(eng, tcpsim.DefaultConfig(), func(s tcpsim.Segment) {
			segments++
			eng.Schedule(delay, func() { rcv.Deliver(s) })
		}, nil)
		t0 := time.Now()
		snd.Start(pathBytes)
		eng.RunAll()
		d := time.Since(t0)
		if !snd.Done() {
			panic("tcpsim loopback did not finish")
		}
		return d
	}
	path()
	pathSegs := segments // segments one transfer takes (deterministic)
	ps = append(ps, measure("tcpsim.segment_path", "ns", pathSegs, mp, path))

	// ipam: allocate / release / expiry sweep on a Solo binding.
	const leases = 250
	macs := make([]dot11.MACAddr, leases)
	for i := range macs {
		macs[i] = dot11.MAC(uint32(1000 + i))
	}
	base := ipnet.AddrFrom4(10, 9, 0, 0)
	const ttl = sim.Time(30 * time.Second)
	fill := func(b *ipam.Binding) {
		for _, mac := range macs {
			if _, err := b.Allocate(0, mac, ttl); err != nil {
				panic(err)
			}
		}
	}
	const ipamRounds = 40
	ps = append(ps, measure("ipam.allocate", "ns", leases*ipamRounds, mp, func() time.Duration {
		var d time.Duration
		for r := 0; r < ipamRounds; r++ {
			b := ipam.Solo("bench", base, leases)
			t0 := time.Now()
			fill(b)
			d += time.Since(t0)
		}
		return d
	}))
	ps = append(ps, measure("ipam.release", "ns", leases*ipamRounds, mp, func() time.Duration {
		var d time.Duration
		for r := 0; r < ipamRounds; r++ {
			b := ipam.Solo("bench", base, leases)
			fill(b)
			t0 := time.Now()
			for _, mac := range macs {
				b.Release(mac)
			}
			d += time.Since(t0)
		}
		return d
	}))
	ps = append(ps, measure("ipam.sweep", "ns", ipamRounds, mp, func() time.Duration {
		var d time.Duration
		for r := 0; r < ipamRounds; r++ {
			b := ipam.Solo("bench", base, leases)
			fill(b)
			t0 := time.Now()
			sink += len(b.SweepExpired(2 * ttl))
			d += time.Since(t0)
		}
		return d
	}))

	// opt: the proportional-fair association solve at two sizes.
	for _, n := range []int{64, 256} {
		prob := pfInstance(n)
		const solves = 20
		ps = append(ps, measure(fmt.Sprintf("opt.solvepf_%d", n), "us", solves, mp, func() time.Duration {
			t0 := time.Now()
			for i := 0; i < solves; i++ {
				sink += len(opt.SolvePF(prob).Assign)
			}
			return time.Since(t0)
		}))
	}

	// telemetry: quantile-sketch ingest.
	const sketchOps = 1000000
	ps = append(ps, measure("telemetry.sketch_observe", "ns", sketchOps, mp, func() time.Duration {
		var sk telemetry.Sketch
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < sketchOps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sk.Observe(int64(x >> 34)) // up to ~1e9: nanosecond-scale latencies
		}
		d := time.Since(t0)
		sink += int(sk.Count())
		return d
	}))

	// obs: Prometheus rendering of a registry shaped like a serve world's.
	reg := promRegistry()
	const renders = 200
	ps = append(ps, measure("obs.render_prometheus", "us", renders, mp, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < renders; i++ {
			sink += len(reg.RenderPrometheus())
		}
		return time.Since(t0)
	}))

	// serve: WAL append, one fsync per record.
	walPath := filepath.Join(dir, "probe.wal")
	const appends = 40
	in := serve.Intent{Kind: serve.IntentAddClient, Client: &serve.ClientSpec{ID: 7, DisableTraffic: true,
		Route: serve.RouteSpec{Points: []geo.Point{{X: -60}, {X: 580}}, SpeedMPS: 15}}}
	var walErr error
	ps = append(ps, measure("serve.wal_append", "us", appends, mp, func() time.Duration {
		os.Remove(walPath)
		w, _, _, err := serve.OpenWAL(walPath)
		if err != nil {
			walErr = err
			return 0
		}
		defer w.Close()
		t0 := time.Now()
		for i := 0; i < appends; i++ {
			in.Seq = uint64(i)
			if err := w.Append(in); err != nil {
				walErr = err
			}
		}
		return time.Since(t0)
	}))
	os.Remove(walPath)
	return ps, walErr
}

// pfInstance builds a deterministic association problem: n clients
// along a corridor of APs striped over channels 1/6/11, each client
// reaching the APs within three positions of it.
func pfInstance(n int) opt.PFProblem {
	naps := n/4 + 3
	p := opt.PFProblem{SwitchMargin: 0.5}
	chans := []int{1, 6, 11}
	for a := 0; a < naps; a++ {
		p.APs = append(p.APs, opt.PFAP{Channel: chans[a%3], CapacityBps: 4e6})
	}
	rng := sim.NewRNG(int64(n))
	for c := 0; c < n; c++ {
		row := make([]float64, naps)
		home := c * naps / n
		for a := home - 3; a <= home+3; a++ {
			if a >= 0 && a < naps {
				row[a] = rng.Uniform(1e6, 24e6)
			}
		}
		p.RateBps = append(p.RateBps, row)
	}
	return p
}

// promRegistry builds a registry with the metric families a serve world
// registers (counters, gauges, histograms across the stack's layers).
func promRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	layers := []string{"phy", "driver", "lmm", "dhcp", "ipam", "core", "chaos", "alloc"}
	for _, l := range layers {
		for i := 0; i < 6; i++ {
			reg.Counter(fmt.Sprintf("%s.counter_%d", l, i)).Add(int64(1000 * (i + 1)))
		}
		reg.Gauge(l + ".gauge").Set(42)
		h := reg.Histogram(l + ".latency_ns")
		for v := int64(1); v < 1e9; v *= 3 {
			h.Observe(v)
		}
	}
	return reg
}
