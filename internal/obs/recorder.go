package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
)

// Recorder collects one run's event timeline and hosts its metrics
// registry. A Recorder belongs to a single scenario run and is written
// from that run's (single) simulation goroutine; reading happens after
// the run completes. A nil *Recorder disables recording everywhere: the
// ClientLogs and Registry it hands out are nil, and every method on those
// is a no-op.
type Recorder struct {
	seq      uint64
	logs     map[int]*ClientLog
	reg      *Registry
	subs     []func(Event)
	spanSubs []func(Span)

	// retain selects whether the timeline is kept in memory. A standard
	// recorder retains everything (Events/Spans export after the run); a
	// streaming recorder (NewStreamingRecorder) constructs each event and
	// closed span, hands it to subscribers, and keeps nothing — the mode
	// the bounded-memory telemetry plane runs city-scale populations in.
	retain bool

	// chattyPolicy, when set, decides once per client (at log creation)
	// whether the client's chatty diagnostic events — the per-probe and
	// per-handshake-attempt kinds that dominate a dense run's stream —
	// are recorded at all. chattySuppressed counts emissions the policy
	// suppressed, so configured loss stays loud in exported accounting.
	chattyPolicy     func(client int) bool
	chattySuppressed int64

	// Streaming-mode slabs: ClientLog structs and their span backing are
	// carved from block allocations so a thousand-client run pays tens of
	// mallocs instead of thousands, and the logs the per-event hot path
	// reads sit densely in memory rather than scattered across the heap.
	logSlab  []ClientLog
	spanSlab []Span

	// evCap/spanCap pre-size the buffers of logs created after Reserve,
	// so population runs don't grow every client's timeline through the
	// append doubling ladder. regrownEv/regrownSpan count appends that
	// outgrew a reserved buffer — nonzero means Reserve undershot and the
	// run paid the doubling ladder after all.
	evCap       int
	spanCap     int
	regrownEv   int64
	regrownSpan int64
}

// NewRecorder returns an empty recorder with a live metrics registry.
func NewRecorder() *Recorder {
	return &Recorder{logs: make(map[int]*ClientLog), reg: NewRegistry(), retain: true}
}

// NewStreamingRecorder returns a recorder that retains nothing: events
// and closed spans are delivered to Subscribe/SubscribeSpans observers
// and then dropped, and span slots are recycled through a free list, so
// memory stays O(open spans + clients) at any population and run length.
// Events, Spans, and Summary return nothing in this mode — the stream is
// the product.
func NewStreamingRecorder() *Recorder {
	return &Recorder{logs: make(map[int]*ClientLog), reg: NewRegistry()}
}

// Streaming reports whether the recorder retains nothing (false on nil:
// a nil recorder records nothing at all, which callers test separately).
func (r *Recorder) Streaming() bool { return r != nil && !r.retain }

// Client returns the log for one client ID, creating it on first use.
// Returns nil (the disabled log) on a nil recorder.
func (r *Recorder) Client(id int) *ClientLog {
	if r == nil {
		return nil
	}
	l, ok := r.logs[id]
	if !ok {
		if r.retain {
			l = &ClientLog{r: r, id: id, chatty: true}
		} else {
			// Streaming logs are tiny and uniform; carve them (and
			// their fixed-cap span backing) from slabs.
			if len(r.logSlab) == 0 {
				r.logSlab = make([]ClientLog, logSlabSize)
				r.spanSlab = make([]Span, logSlabSize*streamSpanCap)
			}
			l = &r.logSlab[0]
			r.logSlab = r.logSlab[1:]
			*l = ClientLog{r: r, id: id, chatty: true}
			l.spans = r.spanSlab[0:0:streamSpanCap]
			r.spanSlab = r.spanSlab[streamSpanCap:]
		}
		if r.chattyPolicy != nil && id != WorldClient {
			l.chatty = r.chattyPolicy(id)
		}
		// A streaming recorder never appends events (Emit only
		// dispatches to subscribers) and recycles span slots through the
		// free list, so its live span count is the concurrently-open
		// depth, not the run total — reserving retention-sized buffers
		// there is pure dead weight at population scale.
		if r.retain {
			if r.evCap > 0 {
				l.evs = make([]Event, 0, r.evCap)
			}
			if r.spanCap > 0 {
				l.spans = make([]Span, 0, r.spanCap)
			}
		}
		r.logs[id] = l
	}
	return l
}

// logSlabSize is the streaming-mode ClientLog block size (see logSlab).
const logSlabSize = 256

// streamSpanCap bounds the per-client span-slot reservation in streaming
// mode: the free list recycles closed slots, so the slice only needs the
// maximum concurrently-open span depth, which the join pipeline keeps in
// single digits.
const streamSpanCap = 8

// Reserve sets the initial per-client event and span buffer capacities
// for logs created afterwards. Scenario startup calls it with estimates
// derived from the run length, before any client emits. Existing logs are
// untouched; no-op on a nil recorder.
func (r *Recorder) Reserve(events, spans int) {
	if r == nil {
		return
	}
	r.evCap = events
	r.spanCap = spans
}

// SetChattyPolicy installs the per-client chatty-event admission policy:
// fn is consulted once per client, when its log is created, and a false
// verdict makes Chatty() report false for that log forever after. The
// world log is never suppressed. Install before the run creates any
// client log (the telemetry plane does so at Bind, which core calls
// before the world is built); logs that already exist keep their
// decision. No-op on a nil recorder.
func (r *Recorder) SetChattyPolicy(fn func(client int) bool) {
	if r == nil {
		return
	}
	r.chattyPolicy = fn
}

// ChattySuppressed returns how many chatty emissions were skipped at
// their call sites because the policy suppressed the client — the count
// that keeps configured sampling loss visible in exported accounting.
func (r *Recorder) ChattySuppressed() int64 {
	if r == nil {
		return 0
	}
	return r.chattySuppressed
}

// Regrown returns how many event and span appends outgrew a reserved
// buffer and paid a reallocation — the regression signal the Reserve
// sizing test asserts stays zero on a properly pre-sized run.
func (r *Recorder) Regrown() (events, spans int64) {
	if r == nil {
		return 0, 0
	}
	return r.regrownEv, r.regrownSpan
}

// World returns the log world-scoped events (chaos faults) record under.
func (r *Recorder) World() *ClientLog { return r.Client(WorldClient) }

// Subscribe registers a streaming observer invoked synchronously, on the
// recording (simulation) goroutine, for every event after it is appended
// to the timeline. Observers must be fast and non-blocking — spider-serve
// fans events out to live JSONL subscribers through a single registered
// function that drops to bounded per-subscriber buffers. Subscribe is not
// safe to call concurrently with recording: register before the run (or
// from the goroutine that drives it). No-op on a nil recorder.
func (r *Recorder) Subscribe(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.subs = append(r.subs, fn)
}

// SubscribeSpans registers a streaming observer invoked synchronously,
// on the recording goroutine, for every span as it closes (End,
// EndStatus, or the final CloseOpenSpans sweep). The delivered Span is a
// copy — observers may keep it. Same registration contract as Subscribe:
// before the run, not concurrently with it. No-op on a nil recorder.
func (r *Recorder) SubscribeSpans(fn func(Span)) {
	if r == nil || fn == nil {
		return
	}
	r.spanSubs = append(r.spanSubs, fn)
}

// Metrics returns the recorder's registry (nil when the recorder is nil,
// which disables every instrument resolved from it).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Events returns the merged timeline ordered by (sim-time, client ID,
// sequence) — the canonical artifact order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var n int
	for _, l := range r.logs {
		n += len(l.evs)
	}
	out := make([]Event, 0, n)
	for _, l := range r.logs {
		out = append(out, l.evs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Client != out[j].Client {
			return out[i].Client < out[j].Client
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Summary counts the recorded events by kind.
func (r *Recorder) Summary() Summary {
	var s Summary
	if r == nil {
		return s
	}
	for _, l := range r.logs {
		for _, e := range l.evs {
			if int(e.Kind) < NumKinds {
				s.Counts[e.Kind]++
			}
		}
	}
	return s
}

// ClientLog is one client's slice of the timeline. The zero of usefulness
// is nil: Emit on a nil log is a single branch and no work.
type ClientLog struct {
	r   *Recorder
	id  int
	evs []Event

	// chatty is the client's cached chatty-policy verdict (true when no
	// policy is installed); see Chatty.
	chatty bool

	// spans is this client's slice of the causal span tree (span.go);
	// spanSeq is the client-local allocation counter span IDs derive
	// from — no global state, so IDs are reproducible per client.
	// spanGen and spanFree exist only in streaming mode: closed span
	// slots go on the free list, and reuse bumps the slot's generation so
	// stale ActiveSpan handles turn into no-ops instead of scribbling on
	// the recycled slot.
	spans    []Span
	spanSeq  uint32
	spanGen  []uint32
	spanFree []int
}

// Emit records one event. The log fills Client and Seq; callers set At,
// Kind, and any payload fields. Safe (and free) on a nil log.
func (l *ClientLog) Emit(ev Event) {
	if l == nil {
		return
	}
	ev.Client = l.id
	ev.Seq = l.r.seq
	l.r.seq++
	if l.r.retain {
		if len(l.evs) == cap(l.evs) {
			l.r.regrownEv++
		}
		l.evs = append(l.evs, ev)
	}
	for _, fn := range l.r.subs {
		fn(ev)
	}
}

// Enabled reports whether events emitted here are recorded, for callers
// that want to skip payload construction entirely.
func (l *ClientLog) Enabled() bool { return l != nil }

// Chatty reports whether this client's chatty diagnostic events (probes,
// per-attempt handshake counters — the kinds that dominate a dense run's
// stream) should be rendered and emitted. When a chatty policy suppressed
// the client, each call counts one suppressed emission, so call it once
// per would-be emission: the suppressed total keeps sampling loss loud
// even though suppressed events are never constructed. False on a nil
// log, where — as with Enabled — nothing is recorded or counted.
func (l *ClientLog) Chatty() bool {
	if l == nil {
		return false
	}
	if l.chatty {
		return true
	}
	l.r.chattySuppressed++
	return false
}

// ChattyFlag reads the sampling decision without counting a suppressed
// emission. Hot emitters (the driver's probe path) cache this immutable
// flag next to their own state — re-reading the log per emission is a
// cache miss per event at population scale — and settle each emission
// the flag swallows through AddSuppressed.
func (l *ClientLog) ChattyFlag() bool { return l != nil && l.chatty }

// AddSuppressed adds n suppressed emissions to the recorder's total
// (see ChattyFlag). No-op on a nil log.
func (l *ClientLog) AddSuppressed(n int64) {
	if l == nil || n == 0 {
		return
	}
	l.r.chattySuppressed += n
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, run string, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range evs {
		if run == "" {
			if err := enc.Encode(e); err != nil {
				return err
			}
			continue
		}
		if err := enc.Encode(struct {
			Run string `json:"run"`
			Event
		}{Run: run, Event: e}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes events as a CSV timeline with header.
func WriteCSV(w io.Writer, evs []Event) error {
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, e := range evs {
		e.appendCSV(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Collector accumulates the per-run event streams of a multi-run sweep
// and exports them in canonical run-label order, so the merged artifact
// is byte-identical however runs were scheduled across workers. Add is
// safe to call from fleet job goroutines.
type Collector struct {
	mu    sync.Mutex
	runs  map[string][]Event
	spans map[string][]Span
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{runs: make(map[string][]Event), spans: make(map[string][]Span)}
}

// Add stores one run's (already ordered) event stream under its label.
// Adding the same label twice appends, preserving call order per label.
func (c *Collector) Add(run string, evs []Event) {
	if c == nil || len(evs) == 0 {
		return
	}
	c.mu.Lock()
	c.runs[run] = append(c.runs[run], evs...)
	c.mu.Unlock()
}

// Runs returns the stored run labels in sorted (export) order.
func (c *Collector) Runs() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.runs))
	for l := range c.runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// WriteJSONL exports every run's stream, runs in sorted label order and
// events in recorded order within each run.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	for _, run := range c.Runs() {
		c.mu.Lock()
		evs := c.runs[run]
		c.mu.Unlock()
		if err := WriteJSONL(w, run, evs); err != nil {
			return err
		}
	}
	return nil
}

// Summary folds every stored run's events into one summary.
func (c *Collector) Summary() Summary {
	var s Summary
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, evs := range c.runs {
		for _, e := range evs {
			if int(e.Kind) < NumKinds {
				s.Counts[e.Kind]++
			}
		}
	}
	return s
}
