package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dqemu/internal/tcg.(*Engine).Run":                "tcg",
		"dqemu/internal/tcg.compileMemRun.func1":          "tcg",
		"dqemu/internal/tcg/symeq.(*Expr).computeDomains": "tcg",
		"dqemu/internal/netsim.(*Network).Send":           "netsim",
		"runtime.mallocgc":                                "go",
		"sync.(*Mutex).Lock":                              "go",
		"net/http.(*conn).serve":                          "nethttp",
		"net/http/internal.(*chunkedReader).Read":         "nethttp",
		"encoding/json.(*decodeState).object":             "nethttp",
		"main.(*simEnv).runOp":                            "bench",
		"internal/runtime/syscall.Syscall6":               "go",
		"dqemu/internal/server.(*Server).Submit.func1":    "server",
		"dqemu/internal/live.(*nodeCore).loop":            "live",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func TestLeafSharesAggregatesByPackage(t *testing.T) {
	strs := []string{"", "dqemu/internal/tcg.(*Engine).run", "runtime.mallocgc", "main.main", "dqemu/internal/mem.(*Space).Load"}
	var prof pb
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		prof = prof.bytes(5, pb{}.varint(1, id).varint(2, id))
		line := pb{}.varint(1, id)
		prof = prof.bytes(4, pb{}.varint(1, id).bytes(4, line))
	}
	// Location 5 inlines mem (innermost, listed first) into tcg.
	prof = prof.bytes(4, pb{}.varint(1, 5).bytes(4, pb{}.varint(1, 4)).bytes(4, pb{}.varint(1, 1)))
	sample := func(count uint64, locs ...uint64) pb {
		var packedLocs []byte
		for _, l := range locs {
			packedLocs = binary.AppendUvarint(packedLocs, l)
		}
		vals := binary.AppendUvarint(binary.AppendUvarint(nil, count), count*10_000_000)
		return pb{}.bytes(1, packedLocs).bytes(2, vals)
	}
	prof = prof.bytes(2, sample(4, 1, 3)) // leaf tcg, called from main
	prof = prof.bytes(2, sample(3, 2, 1)) // leaf runtime
	prof = prof.bytes(2, sample(2, 3))    // leaf main
	prof = prof.bytes(2, sample(1, 5, 3)) // leaf inlined mem

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	shares, n, err := leafShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tcg": 0.4, "go": 0.3, "bench": 0.2, "mem": 0.1}
	if n != 10 || len(shares) != len(want) {
		t.Fatalf("got %d samples, shares %v", n, shares)
	}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", k, shares[k], v)
		}
	}
}

func TestLeafSharesRejectsTruncatedProfile(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb{}.bytes(2, []byte{0x0a, 0x05, 0x01})) // length runs past the end
	zw.Close()
	if _, _, err := leafShares(gz.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
