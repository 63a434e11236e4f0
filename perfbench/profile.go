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

// The benchmark attributes host CPU to layers by the leaf frame of each
// sample of a runtime/pprof CPU profile. The profile is a gzipped
// profile.proto message; only the fields needed to name each sample's leaf
// function are decoded, with a minimal protobuf reader, since the module
// takes no dependencies beyond the standard library.

// layerOf maps a fully qualified Go function name to the layer it belongs
// to: a dqemu/internal package, "nethttp" for net/http and encoding/json,
// "bench" for this harness, or "go" for the runtime and the rest of the
// standard library.
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "dqemu/internal/"):
		rest := strings.TrimPrefix(pkg, "dqemu/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "main":
		return "bench"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "encoding/json":
		return "nethttp"
	default:
		return "go"
	}
}

// leafShares decodes a CPU profile and returns each layer's share of the
// samples, and the number of samples.
func leafShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		leafCount = map[uint64]int64{}  // leaf location id -> samples
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var count int64
			gotCount := false
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					locs = append(locs, v)
				case num == 1 && wire == 2:
					vs, err := packed(b)
					locs = append(locs, vs...)
					return err
				case num == 2 && wire == 0 && !gotCount:
					count, gotCount = int64(v), true
				case num == 2 && wire == 2 && !gotCount:
					vs, err := packed(b)
					if len(vs) > 0 {
						count, gotCount = int64(vs[0]), true
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 {
				leafCount[locs[0]] += count
			}
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2 && !gotLine:
					// The first Line is the innermost inlined function.
					gotLine = true
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total int64
	for loc, n := range leafCount {
		name := ""
		if si, ok := funcName[locLeaf[loc]]; ok && si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		shares[layerOf(name)] += float64(n)
		total += n
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, total, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: varints (wire
// type 0) arrive in v, length-delimited fields (wire type 2) in b. Fixed
// 32- and 64-bit fields are skipped.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
