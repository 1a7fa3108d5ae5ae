package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuProfile samples the benchmark process's CPU while it runs.
type cpuProfile struct {
	buf   bytes.Buffer
	label string // when set, only samples labelled profileKey=label count
}

// profileKey is the pprof label key under which measured work runs when a
// profile also covers work that must not count.
const profileKey = "perfbench"

// profileHz is the sampling rate of the layer profile: five times the
// runtime/pprof default, so a few seconds give thousands of samples.
const profileHz = 500

func startCPUProfile(label string) (*cpuProfile, error) {
	p := &cpuProfile{label: label}
	// Setting the rate first makes StartCPUProfile keep it (it prints a
	// harmless warning to standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the sampled CPU time (ns) by package.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return timeByPackage(p.buf.Bytes(), p.label)
}

// timeByPackage decodes a gzipped pprof profile (the profile.proto message
// runtime/pprof writes) and charges each sample's CPU time to the package
// of the innermost frame that belongs to this module ("abcast/..." or the
// benchmark's "main"): standard-library and runtime work counts toward the
// layer that called it. Samples with no module frame (garbage collection,
// the scheduler) go to "runtime". It reads only the fields it needs:
// samples, locations with their lines, functions and the string table.
// With label set, only samples carrying the label profileKey=label count.
func timeByPackage(data []byte, label string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64    // innermost first
		value  int64       // cpu nanoseconds
		labels [][2]uint64 // key and value string indexes
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					xs, err := varints(w, v, b)
					s.locs = append(s.locs, xs...)
					return err
				case 2:
					xs, err := varints(w, v, b)
					if len(xs) > 0 {
						s.value = int64(xs[len(xs)-1])
					}
					return err
				case 3: // Label
					var kv [2]uint64
					err := eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for _, s := range samples {
		if label != "" {
			keep := false
			for _, kv := range s.labels {
				keep = keep || (str(kv[0]) == profileKey && str(kv[1]) == label)
			}
			if !keep {
				continue
			}
		}
		pkg := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if p := packageOf(str(funcName[fn])); p == "main" || strings.HasPrefix(p, "abcast/") || p == "abcast" {
					pkg = p
					break walk
				}
			}
		}
		out[pkg] += float64(s.value)
	}
	return out, nil
}

// packageOf maps a symbol such as "abcast/internal/core.(*Engine).deliver"
// to its package path ("abcast/internal/core").
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields b holds the bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints returns the values of a repeated integer field, packed or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }
