package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a package's public
// API. Spans of one round share a Trace id; Parent is 0 for a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer (the untraced run) records nothing, so the timed code path is
// identical in both runs apart from the append.
type tracer struct {
	t0    time.Time
	trace int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace starts a new trace id (one per round).
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// record files a finished call; it returns the span id so children can
// name it as parent (0 when tracing is off).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// open reserves a span id for a parent whose end is not known yet;
// close fills it in.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the summed duration minus the part
// its child spans cover. One goroutine drives the workload, so children
// never overlap and coverage is the plain sum of their durations.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// counts returns the number of spans per name.
func (t *tracer) counts() map[string]int {
	out := map[string]int{}
	if t != nil {
		for _, s := range t.spans {
			out[s.Name]++
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line, in id order.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTable renders per-name span counts, total and self time, one
// line per name.
func (t *tracer) spanTable() []string {
	self := t.selfTimes()
	total := map[string]time.Duration{}
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.End - s.Start)
	}
	cnt := t.counts()
	names := make([]string, 0, len(cnt))
	for n := range cnt {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-18s %8s %12s %12s", "span", "count", "total_ms", "self_ms")}
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-18s %8d %12.1f %12.1f", n, cnt[n], ms(total[n]), ms(self[n])))
	}
	return out
}
