package main

// This file decodes the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, github.com/google/pprof/proto/profile.proto) just far
// enough to charge each sample to a layer, so the benchmark needs no
// dependency beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: the function names on its stack,
// innermost first (inlined frames included), and its value.
type stackSample struct {
	stack []string
	value int64
}

// decodeProfile returns a profile's samples, valued by its CPU-time sample
// type when it has one and by its last sample type otherwise.
func decodeProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type location struct{ funcs []uint64 }
	var (
		sampleTypes [][]byte // ValueType messages
		samples     [][]byte // Sample messages
		strs        []string
		locs        = map[uint64]location{}
		funcNames   = map[uint64]int64{} // function id → string index
	)
	err := pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var loc location
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = loc
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ int64
		if err := pbFields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, sb := range samples {
		var locIDs []uint64
		var values []int64
		err := pbFields(sb, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				ids, err := pbRepeated(v, b)
				locIDs = append(locIDs, ids...)
				return err
			case 2:
				vs, err := pbRepeated(v, b)
				for _, x := range vs {
					values = append(values, int64(x))
				}
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		s := stackSample{}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.value = values[valueIdx]
		}
		for _, id := range locIDs {
			for _, fid := range locs[id].funcs {
				s.stack = append(s.stack, str(funcNames[fid]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and its varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated returns a repeated integer field's values, whether the field
// arrived packed (as bytes) or as a single varint.
func pbRepeated(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

const internalPrefix = "mltcp/internal/"

// Buckets that are not an internal package.
const (
	bucketMaxMin  = "fluid.maxmin" // any sample under a fluid.MaxMin method
	bucketBench   = "bench"        // the benchmark's own code (package main)
	bucketRuntime = "runtime"      // no mltcp frame: GC, scheduler, idle
)

// bucketOf charges a stack (innermost first) to a layer: every sample under
// a fluid.MaxMin method to the allocator; otherwise the innermost
// mltcp/internal package; otherwise the benchmark's own code; otherwise
// the runtime.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix+"fluid.MaxMin.") ||
			strings.HasPrefix(fn, internalPrefix+"fluid.(*MaxMin).") {
			return bucketMaxMin
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	return bucketRuntime
}

// shares returns each bucket's fraction of the samples' total value (none
// for an empty profile).
func shares(samples []stackSample) map[string]float64 {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range out {
		out[k] = ratio(out[k], total)
	}
	return out
}
