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

// modulePrefix is the import-path prefix of the repository's modules.
const modulePrefix = "github.com/mess-sim/mess/internal/"

// attribute decodes a gzipped pprof CPU profile and adds each sample's CPU
// time to exactly one layer: the module of the innermost stack frame in an
// internal package; failing that "net" for network-stack stacks, "harness"
// for the benchmark's own code, and "runtime" (GC, scheduler, allocator)
// for the rest. The per-layer times sum to the returned total.
func attribute(profile []byte) (perLayer map[string]int64, total int64, err error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, fmt.Errorf("decoding the CPU profile: %w", err)
	}
	perLayer = map[string]int64{}
	for _, s := range p.samples {
		frames := make([]string, 0, 32)
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				frames = append(frames, p.functions[fn])
			}
		}
		v := s.value
		perLayer[layerOf(frames)] += v
		total += v
	}
	return perLayer, total, nil
}

// layerOf classifies one stack, leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, l := range layers {
				if l == mod {
					return mod
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		for _, prefix := range []string{"net.", "net/", "crypto/tls.", "internal/poll.", "syscall.", "vendor/golang.org/x/net/"} {
			if strings.HasPrefix(f, prefix) {
				return "net"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "harness"
		}
	}
	return "runtime"
}

// profileData is the part of a pprof profile attribution needs.
type profileData struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]string   // function id → name
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64    // CPU nanoseconds
}

// decodeProfile reads the gzipped protocol-buffer form runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto).
func decodeProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		typeIdx    []uint64 // sample_type[i].type as a string index
		samples    []rawSample
		funcNameIx = map[uint64]uint64{}
	)
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	err = eachField(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(data, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, v, d)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
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
	for id, ix := range funcNameIx {
		p.functions[id] = str(ix)
	}
	// The CPU time is the "cpu" value; the other is the sample count.
	valueIdx := len(typeIdx) - 1
	for i, ix := range typeIdx {
		if str(ix) == "cpu" {
			valueIdx = i
		}
	}
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		p.samples = append(p.samples, profSample{locations: s.locs, value: s.values[valueIdx]})
	}
	return p, nil
}

// eachField walks a protocol-buffer message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
