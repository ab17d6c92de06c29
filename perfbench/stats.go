package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") share. xs is not modified.
// With no samples it returns 0, so a figure a workload cannot produce
// still encodes as a number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and secs convert durations to float milliseconds and seconds.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }

// memProbe reads the Go runtime's allocation and heap counters through
// runtime/metrics, which does not stop the world.
type memProbe struct {
	s     []metrics.Sample
	heap1 []metrics.Sample // mHeapObjects alone, for the per-step reading
}

const (
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCPauses    = "/sched/pauses/total/gc:seconds"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

func newMemProbe() *memProbe {
	names := []string{mAllocBytes, mAllocObjs, mHeapObjects, mGCCycles, mGCPauses, mGCCPU, mTotalCPU}
	p := &memProbe{s: make([]metrics.Sample, len(names)), heap1: []metrics.Sample{{Name: mHeapObjects}}}
	for i, n := range names {
		p.s[i].Name = n
	}
	return p
}

// memSnap is one reading of the runtime counters.
type memSnap struct {
	allocBytes, allocObjs, heapObjects, gcCycles uint64
	gcPauseSecs, gcCPUSecs, totalCPUSecs         float64
}

func (p *memProbe) read() memSnap {
	metrics.Read(p.s)
	var m memSnap
	for _, s := range p.s {
		switch s.Name {
		case mAllocBytes:
			m.allocBytes = s.Value.Uint64()
		case mAllocObjs:
			m.allocObjs = s.Value.Uint64()
		case mHeapObjects:
			m.heapObjects = s.Value.Uint64()
		case mGCCycles:
			m.gcCycles = s.Value.Uint64()
		case mGCPauses:
			m.gcPauseSecs = histSum(s.Value.Float64Histogram())
		case mGCCPU:
			m.gcCPUSecs = s.Value.Float64()
		case mTotalCPU:
			m.totalCPUSecs = s.Value.Float64()
		}
	}
	return m
}

// heap returns only the live-plus-unswept heap object bytes, the cheap
// reading taken at every step barrier to find a round's peak.
func (p *memProbe) heap() uint64 {
	metrics.Read(p.heap1)
	return p.heap1[0].Value.Uint64()
}

// histSum estimates the total of a runtime/metrics histogram from bucket
// midpoints (the runtime exposes pause times only as a histogram).
func histSum(h *metrics.Float64Histogram) float64 {
	var t float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		t += float64(c) * (lo + hi) / 2
	}
	return t
}
