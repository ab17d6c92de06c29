package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. A nil counter (resolved
// from a nil registry) makes every method a no-op, so disabled
// instrumentation costs one nil check on the hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins level.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the last set level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations v
// with bit-length i, i.e. exponentially widening ranges. 64 covers every
// non-negative int64.
const histBuckets = 65

// Histogram accumulates a value distribution in power-of-two buckets —
// coarse, allocation-free, and mergeable by addition. Observations are
// one atomic add per call.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value; negatives clamp to bucket zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation total (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the non-zero buckets as (bit-length, count) pairs in
// ascending bucket order.
func (h *Histogram) Buckets() (idx []int, counts []int64) {
	if h == nil {
		return nil, nil
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			idx = append(idx, i)
			counts = append(counts, c)
		}
	}
	return idx, counts
}

// Registry resolves named instruments and, through SetView, renders
// counts that live elsewhere. Resolution (construction-time) takes a
// lock; the returned instruments are lock-free. A nil registry resolves
// nil instruments, disabling recording with no branches beyond the
// instruments' own nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	view     func() []Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first resolution.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first resolution.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first resolution.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Metric is one snapshot sample.
type Metric struct {
	Name string
	Type string // "counter", "gauge", or "histogram"
	// Value is the counter/gauge value, or the histogram count.
	Value int64
	// Sum is the histogram observation total (histograms only).
	Sum int64
}

// SetView installs the registry's read-time source: every Snapshot
// merges fn's samples with the stored instruments, so a count whose only
// storage is its owner's typed stats renders without a second copy. fn
// runs on the snapshotting goroutine, which must be one allowed to read
// what fn reads. No-op on a nil registry.
func (r *Registry) SetView(fn func() []Metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.view = fn
	r.mu.Unlock()
}

// Snapshot returns every instrument and view sample sorted by (type,
// name) — a deterministic order suitable for artifact export.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		out = append(out, Metric{Name: n, Type: "counter", Value: c.Value()})
	}
	for n, g := range r.gauges {
		out = append(out, Metric{Name: n, Type: "gauge", Value: g.Value()})
	}
	for n, h := range r.hists {
		out = append(out, Metric{Name: n, Type: "histogram", Value: h.Count(), Sum: h.Sum()})
	}
	view := r.view
	r.mu.Unlock()
	if view != nil {
		out = append(out, view()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// promName sanitizes a registry instrument name into the Prometheus
// metric-name alphabet ([a-zA-Z0-9_:]) under the spider_ namespace:
// dots and dashes — the registry's native separators — become
// underscores, anything else outside the alphabet does too.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("spider_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// RenderPrometheus prints the snapshot in the Prometheus text exposition
// format: one `# TYPE` line plus one sample per instrument, counters and
// gauges verbatim, histograms as the conventional _count/_sum pair.
// Families render in Snapshot order — sorted by (type, name) — so two
// renders of the same registry state are byte-identical; /v1/metrics and
// its order-pinning test depend on that.
func (r *Registry) RenderPrometheus() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		name := promName(m.Name)
		switch m.Type {
		case "histogram":
			fmt.Fprintf(&b, "# TYPE %s_count counter\n%s_count %d\n", name, name, m.Value)
			fmt.Fprintf(&b, "# TYPE %s_sum counter\n%s_sum %d\n", name, name, m.Sum)
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, m.Value)
		default:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, m.Value)
		}
	}
	return b.String()
}
