package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// stackSample is one CPU profile sample: its call stack as function
// names, innermost first, and its CPU time.
type stackSample struct {
	funcs []string
	value int64
}

var errProfile = errors.New("malformed pprof profile")

// readProfile decodes a gzipped pprof protobuf profile, as written by
// runtime/pprof, into stack samples. It reads only the fields the layer
// attribution needs (profile.proto: sample_type 1, sample 2, location 4,
// function 5, string_table 6) and charges each sample its "cpu" value.
func readProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	var (
		types   []uint64 // string index of each sample type
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			return fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2:
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, b)
				case 2:
					s.values, err = varints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errProfile
		}
		st := stackSample{value: int64(s.values[valueIdx])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				st.funcs = append(st.funcs, str(fnName[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks the fields of one protobuf message. v holds a varint or
// fixed-width value, b the payload of a length-delimited field.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProfile
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), int(key&7), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends the values of a repeated integer field, which the
// encoder may write packed (wire type 2) or one value per field.
func varints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// layerAlias charges packages that are not layers of their own to the
// layer they serve: the executor's exchange queues, the oracle the
// simulated crowd consults, the answer-aggregation statistics, and the
// public facade and error taxonomy of the engine.
var layerAlias = map[string]string{
	"queue":    "exec",
	"workload": "crowd",
	"stats":    "infer",
	"qurk":     "core",
	"qerr":     "core",
}

// layerOf names the layer a sample's CPU is charged to: the innermost
// frame from this repository (repro/...) decides by its package, the
// benchmark's own frames (package main) are "bench", and a stack with
// neither belongs to the Go runtime.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, "repro/")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			rest = rest[:i]
		}
		pkg := path.Base(rest)
		if l, ok := layerAlias[pkg]; ok {
			return l
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// cpuShares is each layer's share of the samples' CPU time; every layer
// of cpuLayers is present and the shares sum to 1.
func cpuShares(samples []stackSample) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[layerOf(s.funcs)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
