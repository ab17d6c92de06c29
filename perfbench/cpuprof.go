package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into self time per
// package. The profile is a gzipped protocol buffer (profile.proto);
// only the few fields self time needs are decoded, with a minimal
// wire-format reader, so the benchmark needs nothing beyond the
// standard library.

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// cpuPackages are the package groups a profile is split into, in
// report order. Repository packages go by their directory name; the Go
// runtime (including GC) by "runtime"; math/rand (the RNG streams'
// source) by "math-rand"; package math (the radio model's path-loss
// arithmetic) by "math"; the rest of the standard library by "stdlib";
// this benchmark's own code by "bench"; any other repository package by
// "other".
var cpuPackages = []string{
	"sim", "phy", "driver", "lmm", "dhcp", "ipam", "ipnet", "tcpsim", "alloc", "opt",
	"dot11", "obs", "telemetry", "serve", "core", "ap", "mempool", "geo", "mobility",
	"backhaul", "runtime", "math-rand", "math", "stdlib", "bench", "other",
}

// packageOf maps a profiled function name to its cpuPackages group.
func packageOf(fn string) string {
	const repo = "spider/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		rest := fn[len(repo):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, p := range cpuPackages {
			if p == rest {
				return p
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime"), strings.HasPrefix(fn, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(fn, "math/rand."):
		return "math-rand"
	case strings.HasPrefix(fn, "math."):
		return "math"
	}
	return "stdlib"
}

// cpuSelf accumulates sampled CPU nanoseconds per package group.
type cpuSelf map[string]int64

// add decodes one gzipped CPU profile and folds its samples in, each
// charged to the package of its innermost frame.
func (c cpuSelf) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var strs []string
	funcName := map[uint64]int64{}  // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		loc   uint64
		nanos int64
	}
	var samples []sample
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					if seenLine { // line[0] is the innermost inlined frame
						return nil
					}
					seenLine = true
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case profSample:
			var locs, vals []uint64
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case sampleLocationID:
					locs = appendInts(locs, v, pb)
				case sampleValue:
					vals = appendInts(vals, v, pb)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// Go CPU profiles carry [samples, cpu-nanoseconds].
			if len(locs) > 0 && len(vals) == 2 {
				samples = append(samples, sample{locs[0], int64(vals[1])})
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if si := funcName[leafFunc[s.loc]]; si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		c[packageOf(name)] += s.nanos
	}
	return nil
}

// shares returns each group's fraction of all sampled CPU time.
func (c cpuSelf) shares() (map[string]float64, int64) {
	var total int64
	for _, v := range c {
		total += v
	}
	out := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		out[p] = ratio(float64(c[p]), float64(total))
	}
	return out, total
}

// appendInts appends a repeated integer field given either unpacked
// (one varint, v) or packed (a length-delimited run, pb).
func appendInts(dst []uint64, v uint64, pb []byte) []uint64 {
	if pb == nil {
		return append(dst, v)
	}
	for len(pb) > 0 {
		x, n := binary.Uvarint(pb)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		pb = pb[n:]
	}
	return dst
}

var errWire = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes (nil for
// non-delimited fields). Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errWire
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errWire
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errWire
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errWire
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errWire
			}
			b = b[4:]
		default:
			return errWire
		}
	}
	return nil
}
