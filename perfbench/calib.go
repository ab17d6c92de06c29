package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on drifts: the same world can take 40%
// longer to simulate in one minute than in the next, on every CPU clock
// (wall, process and thread CPU time alike), so raw host-time figures of
// two runs differ by more than any change worth gating. The benchmark
// therefore measures the host's speed next to the workload, in short
// slices between the timed calls, and reports host time as if the host
// had run at a fixed reference speed.
//
// The yardstick has two fixed kernels, and a speed sample runs one slice
// of each. Tight loops (a pointer chase through a cycle larger than the
// last-level cache, integer hashing) slow down by a third to a tenth as
// much as the simulator when the host drifts. What tracks it is code
// like its own: mixKernel, standard library work with a large
// instruction footprint and data-dependent branches, tracks whole
// rounds and their slow (collector-heavy) steps; wheelKernel, a timer
// wheel of intrusive lists firing handlers through indirect calls, the
// shape of the sim engine, tracks typical engine-bound steps. A workload
// weights the wheel by the share of its CPU time spent in the sim engine
// (engineShare) and the mix by the rest. Neither kernel calls anything
// in the repository, so no change to the program moves their time; only
// the host does.
type refKernel struct {
	mix   *mixKernel
	wheel *wheelKernel
}

func newRefKernel() *refKernel {
	return &refKernel{mix: newMixKernel(), wheel: newWheelKernel()}
}

const (
	// One speed sample: refMixOps mix operations and refWheelOps wheel
	// events, about 0.33 and 0.22 ms on a quiet 2-vCPU Intel Xeon virtual
	// machine (Go 1.24). Those times are the reference speed, refMixNominal
	// and refWheelNominal: host-time metrics are reported as if every
	// sample had taken them.
	refMixOps       = 3
	refWheelOps     = 8000
	refMixNominal   = 330 * time.Microsecond
	refWheelNominal = 220 * time.Microsecond
)

// mixKernel encodes and decodes JSON through reflection, matches a
// regular expression, formats with fmt and strconv, updates a map, and
// runs sort.Sort and container/heap through interfaces.
type mixKernel struct {
	recs   []refRecord
	back   []refRecord
	buf    bytes.Buffer
	names  map[string]int
	timers refTimers
	order  refOrder
}

type refRecord struct {
	ID    int                `json:"id"`
	Name  string             `json:"name"`
	Tags  []string           `json:"tags"`
	Attrs map[string]float64 `json:"attrs"`
	Links []refLink          `json:"links"`
}

type refLink struct {
	AP   int     `json:"ap"`
	Chan int     `json:"chan"`
	RSSI float64 `json:"rssi"`
}

var refName = regexp.MustCompile(`^client-(\d+)-ch(\d+)$`)

const refBatch = 16 // records per mix operation

func newMixKernel() *mixKernel {
	k := &mixKernel{names: map[string]int{}}
	for i := 0; i < refBatch; i++ {
		k.recs = append(k.recs, refRecord{
			ID:    i,
			Name:  "client-" + strconv.Itoa(100+i) + "-ch" + strconv.Itoa(1+5*(i%3)),
			Tags:  []string{"vehicle", "spider", strconv.Itoa(i % 4)},
			Attrs: map[string]float64{"rssi": -50 - float64(i), "loss": 0.01 * float64(i), "rate": 54},
			Links: []refLink{{AP: i, Chan: 1, RSSI: -61.5}, {AP: i + 1, Chan: 6, RSSI: -70.25}},
		})
	}
	for i := 0; i < 512; i++ {
		heap.Push(&k.timers, (i*7919)%4096)
	}
	k.run(1) // size the buffers and compile the encoders
	return k
}

// run performs n operations and returns the host time they took. One
// operation encodes and decodes a batch of records, then parses, formats
// and files each record, and sorts the batch.
func (k *mixKernel) run(n int) time.Duration {
	t0 := time.Now()
	for op := 0; op < n; op++ {
		k.buf.Reset()
		if err := json.NewEncoder(&k.buf).Encode(k.recs); err != nil {
			panic(err) // fixed, encodable records
		}
		k.back = k.back[:0]
		if err := json.Unmarshal(k.buf.Bytes(), &k.back); err != nil {
			panic(err)
		}
		k.order = k.order[:0]
		for i := range k.back {
			r := &k.back[i]
			m := refName.FindStringSubmatch(r.Name)
			id, _ := strconv.Atoi(m[1])
			ch, _ := strconv.Atoi(m[2])
			k.buf.Reset()
			fmt.Fprintf(&k.buf, "%s/%d/%.2f/%v", r.Name, ch, r.Attrs["rssi"], r.Tags)
			k.names[k.buf.String()] += id
			t := heap.Pop(&k.timers).(int)
			heap.Push(&k.timers, (t+id*31+ch)%4096)
			k.order = append(k.order, refKey{t: t, id: id})
		}
		sort.Sort(k.order)
		if len(k.names) > 4096 {
			clear(k.names)
		}
	}
	return time.Since(t0)
}

type refTimers []int

func (h refTimers) Len() int           { return len(h) }
func (h refTimers) Less(i, j int) bool { return h[i] < h[j] }
func (h refTimers) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refTimers) Push(x any)        { *h = append(*h, x.(int)) }
func (h *refTimers) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refKey struct{ t, id int }

type refOrder []refKey

func (o refOrder) Len() int { return len(o) }
func (o refOrder) Less(i, j int) bool {
	if o[i].t != o[j].t {
		return o[i].t < o[j].t
	}
	return o[i].id < o[j].id
}
func (o refOrder) Swap(i, j int) { o[i], o[j] = o[j], o[i] }

// wheelKernel is a 256-slot timer wheel over wheelNodes nodes kept in
// intrusive doubly linked lists, in random order. Each event unlinks the
// earliest node, calls one of 32 handlers through a func value, and
// re-files the node up to 200 ticks ahead. Its arrays are mapped outside
// the Go heap, so they neither count in the heap figures nor pace the
// garbage collector.
type wheelKernel struct {
	next, prev []int32
	due        []uint32
	fn         []uint8
	head       [256]int32
	cur        uint32
	rng        uint64
	acc        uint64
	handlers   [32]func(w *wheelKernel, n int32)
}

const wheelNodes = 1 << 15

func newWheelKernel() *wheelKernel {
	mem, err := syscall.Mmap(-1, 0, wheelNodes*13, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err) // 416 KB of anonymous memory
	}
	base := unsafe.Pointer(unsafe.SliceData(mem))
	w := &wheelKernel{
		next: unsafe.Slice((*int32)(base), wheelNodes),
		prev: unsafe.Slice((*int32)(unsafe.Add(base, wheelNodes*4)), wheelNodes),
		due:  unsafe.Slice((*uint32)(unsafe.Add(base, wheelNodes*8)), wheelNodes),
		fn:   mem[wheelNodes*12:],
		rng:  0x9E3779B97F4A7C15,
	}
	for i := range w.head {
		w.head[i] = -1
	}
	for i := range w.handlers {
		k := uint64(i)*0x9E3779B97F4A7C15 | 1
		switch i % 4 {
		case 0:
			w.handlers[i] = func(w *wheelKernel, n int32) { w.acc += k ^ uint64(n) }
		case 1:
			w.handlers[i] = func(w *wheelKernel, n int32) { w.acc = w.acc*k + uint64(w.due[n]) }
		case 2:
			w.handlers[i] = func(w *wheelKernel, n int32) {
				if w.acc&k != 0 {
					w.acc ^= uint64(n) << 3
				} else {
					w.acc += k
				}
			}
		default:
			w.handlers[i] = func(w *wheelKernel, n int32) { w.acc += uint64(w.fn[n]) * k }
		}
	}
	// File the nodes in a random order, so list neighbours are far apart.
	order := make([]int32, wheelNodes)
	for i := range order {
		order[i] = int32(i)
	}
	for i := wheelNodes - 1; i > 0; i-- {
		j := int(w.rand() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for _, n := range order {
		w.fn[n] = uint8(w.rand() % 32)
		w.file(n, uint32(w.rand()%256))
	}
	return w
}

func (w *wheelKernel) rand() uint64 {
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	return w.rng
}

// file links node n at the head of the slot for tick due.
func (w *wheelKernel) file(n int32, due uint32) {
	s := due & 255
	w.due[n] = due
	h := w.head[s]
	w.next[n], w.prev[n] = h, -1
	if h >= 0 {
		w.prev[h] = n
	}
	w.head[s] = n
}

// run fires n events and returns the host time they took.
func (w *wheelKernel) run(n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for w.head[w.cur&255] < 0 {
			w.cur++
		}
		e := w.head[w.cur&255]
		nx := w.next[e]
		w.head[w.cur&255] = nx
		if nx >= 0 {
			w.prev[nx] = -1
		}
		w.handlers[w.fn[e]](w, e)
		w.file(e, w.cur+1+uint32(w.rand()%200))
	}
	sink += int(w.acc)
	return time.Since(t0)
}

// speedProbe samples the host's speed between a round's calls: each
// sample runs one slice of each reference kernel. It also counts what the
// slices allocate, so the round's allocation figures can leave it out.
// A nil probe samples nothing and reads as the reference speed (traced
// runs use none, so the kernels do not show in their profiles).
type speedProbe struct {
	k          *refKernel
	wheelShare float64 // weight of the wheel kernel in slowness
	mix, wheel time.Duration
	slices     int
	allocBytes uint64
	allocObjs  uint64
	m          []metrics.Sample
}

func newSpeedProbe(k *refKernel, wheelShare float64) *speedProbe {
	return &speedProbe{k: k, wheelShare: wheelShare, m: []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}}}
}

// sample runs one slice of each kernel and returns their host time,
// which the caller leaves out of the workload's own time.
func (p *speedProbe) sample() time.Duration {
	if p == nil {
		return 0
	}
	metrics.Read(p.m)
	b0, o0 := p.m[0].Value.Uint64(), p.m[1].Value.Uint64()
	dm := p.k.mix.run(refMixOps)
	dw := p.k.wheel.run(refWheelOps)
	metrics.Read(p.m)
	p.allocBytes += p.m[0].Value.Uint64() - b0
	p.allocObjs += p.m[1].Value.Uint64() - o0
	p.mix += dm
	p.wheel += dw
	p.slices++
	return dm + dw
}

// slowness is the host's time per sample so far relative to the
// reference speed, the kernels weighted by wheelShare: 1.25 means the
// host ran 25% slower. Dividing a host time by it gives the time at the
// reference speed.
func (p *speedProbe) slowness() float64 {
	if p == nil {
		return 1
	}
	mix, wheel := p.kernelSlowness()
	return p.wheelShare*wheel + (1-p.wheelShare)*mix
}

// kernelSlowness is each kernel's time per sample so far relative to its
// reference.
func (p *speedProbe) kernelSlowness() (mix, wheel float64) {
	if p == nil || p.slices == 0 {
		return 1, 1
	}
	n := float64(p.slices)
	return float64(p.mix) / n / float64(refMixNominal), float64(p.wheel) / n / float64(refWheelNominal)
}
