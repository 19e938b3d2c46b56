package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (a gzipped
// profile.proto message) with a minimal protobuf decoder, so the
// benchmark adds no module dependency, and buckets its samples by layer.

// profile is the part of profile.proto the aggregator needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	funcs   map[uint64]int64    // function id → name (string table index)
	strs    []string
	period  int64 // nanoseconds of CPU time one sample stands for
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first sample value: the number of samples
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message. For varint fields fn gets the
// value; for length-delimited fields it gets the bytes; fixed-width
// fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated varint field in either encoding: one
// value (b == nil) or a packed run.
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOfPackage maps the repository's packages (and the few standard
// library packages that are part of a layer) to layers.
var layerOfPackage = map[string]string{
	"silo/internal/sim":         "sim",
	"silo/internal/machine":     "machine",
	"silo/internal/stats":       "machine", // the machine's histograms and run record
	"silo/internal/cache":       "cache",
	"silo/internal/pm":          "pm",
	"silo/internal/mem":         "pm",
	"silo/internal/logging":     "logging",
	"silo/internal/core":        "core",
	"silo/internal/baseline":    "baseline",
	"silo/internal/workload":    "workload",
	"silo/internal/pmds":        "workload",
	"silo/internal/tpcc":        "workload",
	"silo/internal/pmheap":      "workload",
	"iter":                      "workload", // iter.Pull coroutines drive the workload programs
	"silo/internal/audit":       "audit",
	"silo/internal/telemetry":   "telemetry",
	"silo/internal/recovery":    "recovery",
	"silo/internal/fault":       "fault",
	"silo/internal/harness":     "harness",
	"silo/internal/resultstore": "resultstore",
	"math/rand":                 "rand",
	"math/rand/v2":              "rand",
}

// packageOf returns the import path of a Go symbol name such as
// "silo/internal/cache.(*Cache).access" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf buckets one stack, given leaf first with inlined frames
// expanded. A leaf in the runtime is runtime time (allocation, GC,
// scheduling), except under the coroutine switches iter.Pull makes,
// which are the workload transport. Any other frame outside the
// repository (sync, syscall, encoding/json, hash/crc32, ...) is charged
// to the nearest repository caller. A stack with no repository frame is
// "other".
func layerOf(stack []string) string {
	if len(stack) > 0 && isRuntime(packageOf(stack[0])) {
		for _, fn := range stack {
			if strings.HasPrefix(fn, "runtime.coro") {
				return "workload"
			}
		}
		return "runtime"
	}
	for _, fn := range stack {
		if l, ok := layerOfPackage[packageOf(fn)]; ok {
			return l
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/")
}

// layerShares is the profile bucketed by layer.
type layerShares struct {
	samples map[string]int64
	total   int64
	period  int64
}

// aggregate buckets every sample by layer, except the reference kernel's
// (hostspeed.go), which times the host, not the program.
func aggregate(p *profile) layerShares {
	out := layerShares{samples: make(map[string]int64), period: p.period}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				if i := p.funcs[fid]; i >= 0 && i < int64(len(p.strs)) {
					stack = append(stack, p.strs[i])
				}
			}
		}
		if slices.Contains(stack, "main.refKernel") {
			continue
		}
		out.samples[layerOf(stack)] += s.count
		out.total += s.count
	}
	return out
}

// share is a layer's fraction of the samples and its binomial standard
// error.
func (s layerShares) share(layer string) (p, se float64) {
	if s.total == 0 {
		return 0, 0
	}
	p = float64(s.samples[layer]) / float64(s.total)
	return p, math.Sqrt(p * (1 - p) / float64(s.total))
}
