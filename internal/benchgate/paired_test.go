package benchgate

import (
	"reflect"
	"testing"
)

// logArm returns an arm that appends name to *log on every call.
func logArm(log *[]string, name string) func() {
	return func() { *log = append(*log, name) }
}

// TestPairedWarmsUpThenAlternates pins the protocol's call order: one
// untimed warm-up per arm before any timed run, then pairs rounds whose
// arm order flips every round, so the first arm alternates between first
// and second place.
func TestPairedWarmsUpThenAlternates(t *testing.T) {
	var log []string
	const pairs = 4
	s := Paired(pairs, logArm(&log, "a"), logArm(&log, "b"))
	want := []string{
		"a", "b", // warm-ups
		"a", "b", "b", "a", "a", "b", "b", "a",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("call order %v, want %v", log, want)
	}
	if len(s) != 2 {
		t.Fatalf("%d samples for 2 arms", len(s))
	}
	if s[0].Ratios != nil {
		t.Errorf("first arm has ratios %v; it is the reference", s[0].Ratios)
	}
	if len(s[1].Ratios) != pairs {
		t.Errorf("second arm has %d ratios, want one per pair (%d)", len(s[1].Ratios), pairs)
	}
}

// TestPairedOneArm pins the ladder's use: a single arm runs pairs timed
// runs after one warm-up.
func TestPairedOneArm(t *testing.T) {
	var log []string
	const pairs = 3
	s := Paired(pairs, logArm(&log, "a"))
	if len(log) != pairs+1 {
		t.Errorf("one arm ran %d times, want %d (one warm-up + %d timed)", len(log), pairs+1, pairs)
	}
	if len(s) != 1 || s[0].Ratios != nil {
		t.Errorf("one-arm samples %+v", s)
	}
}

var sink [100]*[64]byte

// TestPairedCountsMallocs checks that the heap allocations an arm makes
// in its timed runs reach its sample.
func TestPairedCountsMallocs(t *testing.T) {
	const pairs, perRun = 5, len(sink)
	s := Paired(pairs, func() {}, func() {
		for i := range sink {
			sink[i] = new([64]byte)
		}
	})
	if s[1].Mallocs < pairs*uint64(perRun) {
		t.Errorf("allocating arm counted %d mallocs, want >= %d", s[1].Mallocs, pairs*perRun)
	}
	if s[1].Bytes < pairs*uint64(perRun)*64 {
		t.Errorf("allocating arm counted %d bytes, want >= %d", s[1].Bytes, pairs*perRun*64)
	}
}
