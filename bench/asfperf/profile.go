package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile (gzipped
// profile.proto) the per-module fold needs. Reading it in-process keeps the
// benchmark free of `go tool pprof`.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id → function ids, innermost inlined frame first
	funcs   map[uint64]int64    // function id → index of its name in strs
	strs    []string
}

// sample is one stack (leaf location first) and the CPU nanoseconds
// charged to it.
type sample struct {
	locs []uint64
	ns   int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	var types []int64 // string index of each sample type's name
	var values [][]int64
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			var t int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					t = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case fProfileSample:
			var s sample
			var vals []int64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case fSampleLocation:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return repeated(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			values = append(values, vals)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// runtime/pprof writes two values per CPU sample: samples/count and
	// cpu/nanoseconds.
	vi := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for i := range p.samples {
		if vi >= len(values[i]) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		p.samples[i].ns = values[i][vi]
	}
	return p, nil
}

// frames returns a sample's function names, innermost first.
func (p *profile) frames(s sample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// fold charges every sample to one module and returns CPU nanoseconds per
// module.
func (p *profile) fold() map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		out[moduleOf(p.frames(s))] += s.ns
	}
	return out
}

// moduleOf is the fold rule. A stack is charged to the package of its
// innermost asfstack frame, so standard-library work (mallocgc,
// encoding/json) counts against the repo code that asked for it. Stacks
// with no repo frame go to runtime.coro when they hold the coroutine
// switch (the sim hand-off switches on g0, with no user frames), to
// runtime.gc when they are background GC work, and to other otherwise.
func moduleOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "asfstack/internal/"); ok {
			if pkg := rest[:strings.IndexAny(rest+".", "./")]; slices.Contains(modules, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(f, "asfstack.") {
			return "stack"
		}
	}
	for _, f := range frames {
		if strings.Contains(f, "coroswitch") {
			return "runtime.coro"
		}
	}
	for _, f := range frames {
		for _, gc := range []string{"gcBgMarkWorker", "bgsweep", "bgscavenge"} {
			if strings.Contains(f, gc) {
				return "runtime.gc"
			}
		}
	}
	return "other"
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint or fixed value (v) or its length-delimited bytes (b).
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field, which runtime/pprof writes
// packed (b holds the varints) or one element per field (v).
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
