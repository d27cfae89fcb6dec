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

// profileShares attributes each CPU-profile sample to one bucket and
// returns each bucket's share of all samples. A sample goes to
// "runtime_malloc" when runtime.mallocgc sits between its leaf and the
// innermost edgeslice frame; otherwise to the innermost edgeslice
// package on its stack ("netsim", "core", ...); samples with no edgeslice
// frame go to "other".
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample count
		total += n
		counts[p.bucket(s.locs)] += n
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for k, n := range counts {
		out[k] = float64(n) / float64(total)
	}
	return out, nil
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	samples   []pSample
	locations map[uint64][]uint64 // location id → function ids, leaf first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

const edgeslicePrefix = "edgeslice/internal/"

func (p *profile) bucket(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locations[loc] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name := p.strings[idx]
			if name == "runtime.mallocgc" {
				return "runtime_malloc"
			}
			if rest, ok := strings.CutPrefix(name, edgeslicePrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return "other"
}

// parseProfile decodes the fields of a pprof Profile message that
// profileShares reads: sample (2), location (4), function (5) and
// string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pSample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return walkFields(d, func(lf, lw int, lv uint64, _ []byte) error {
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
		case 5:
			var id uint64
			var name int64
			err := walkFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// walkFields calls fn for every field of a protobuf message: varints
// (wire type 0) arrive in v, length-delimited fields (wire type 2) in data;
// fixed-width fields are skipped.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
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
			continue
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
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
