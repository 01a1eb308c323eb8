//go:build ignore

// Regenerates the FuzzUpdateRoundTrip and FuzzFlowSpecRoundTrip seed
// corpora:
//
//	go run gen_fuzz_corpus.go
//
// The UPDATE corpus covers the interesting encoder/decoder shapes: plain
// announcements, withdraw-only messages, every optional attribute, unknown
// attributes with and without extended length, multi-segment AS paths, and
// a few deliberately malformed bodies. The FlowSpec corpus covers each
// component type, full MP_REACH/MP_UNREACH messages, wide-operator and
// FSPort forms the encoder never emits, and malformed component lists.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bgp"
)

func main() {
	longPath := make([]uint32, 300)
	for i := range longPath {
		longPath[i] = uint32(65000 + i)
	}
	updates := []*bgp.Update{
		{
			NLRI:  []bgp.Prefix{bgp.MustParsePrefix("203.0.113.5/32")},
			Attrs: bgp.PathAttrs{ASPath: []uint32{64500, 64501}, NextHop: 0x0A000001, Communities: bgp.Communities{bgp.Blackhole}},
		},
		{Withdrawn: []bgp.Prefix{bgp.MustParsePrefix("198.51.100.0/24"), bgp.MustParsePrefix("192.0.2.77/32")}},
		{
			NLRI: []bgp.Prefix{bgp.MustParsePrefix("192.0.2.0/25"), bgp.MustParsePrefix("10.0.0.0/8")},
			Attrs: bgp.PathAttrs{
				Origin: bgp.OriginIncomplete, ASPath: []uint32{64500}, NextHop: 1,
				MED: 7, HasMED: true, LocalPref: 200, HasLocalPref: true,
				Communities: bgp.Communities{0x029A0000, bgp.Blackhole},
				Unknown: []bgp.RawAttr{
					{Flags: 0xC0, Type: 32, Value: []byte{1, 2, 3, 4}},
					{Flags: 0xC0, Type: 33, Value: make([]byte, 300)},
				},
			},
		},
		{
			NLRI:  []bgp.Prefix{bgp.MustParsePrefix("0.0.0.0/0")},
			Attrs: bgp.PathAttrs{ASPath: longPath, NextHop: 2},
		},
	}

	var bodies [][]byte
	for _, u := range updates {
		enc, err := bgp.EncodeUpdate(u)
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, enc[19:])
	}
	bodies = append(bodies,
		[]byte{},                       // too short
		[]byte{0, 0, 0, 0},             // empty withdrawn + empty attrs
		[]byte{0, 4, 32, 1, 2},         // truncated withdrawn NLRI
		[]byte{0, 0, 0, 3, 0x40, 2, 0}, // empty AS_PATH, no NLRI
	)

	writeCorpus("FuzzUpdateRoundTrip", bodies)
	writeCorpus("FuzzFlowSpecRoundTrip", flowSpecSeeds())
}

// flowSpecSeeds builds the FuzzFlowSpecRoundTrip corpus: encoded NLRI
// entries, full FlowSpec UPDATEs, decoder-only operator forms, and
// malformed component lists.
func flowSpecSeeds() [][]byte {
	rules := []*bgp.FlowRule{
		{Dst: bgp.MustParsePrefix("203.0.113.5/32"), HasDst: true},
		{Dst: bgp.MustParsePrefix("198.51.100.0/24"), HasDst: true, Protos: []uint8{17}},
		{Protos: []uint8{6, 17}, DstPorts: []uint16{123, 11211}},
		{SrcPorts: []uint16{53}},
		{
			Dst: bgp.MustParsePrefix("192.0.2.0/25"), HasDst: true,
			Protos: []uint8{17}, DstPorts: []uint16{389, 1900}, SrcPorts: []uint16{123},
		},
	}
	var seeds [][]byte
	for _, r := range rules {
		enc, err := bgp.EncodeFlowRule(r)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, enc)
	}
	for _, u := range []*bgp.FlowSpecUpdate{
		{Announced: rules[:2], ExtComms: []bgp.ExtCommunity{bgp.TrafficRateDiscard}},
		{Withdrawn: rules[2:4]},
	} {
		wrapped, err := bgp.UpdateFromFlowSpec(u)
		if err != nil {
			panic(err)
		}
		msg, err := bgp.EncodeUpdate(wrapped)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, msg)
	}
	return append(seeds,
		// Shapes the decoder accepts but the encoder never emits.
		[]byte{5, 2, 24, 198, 51, 100},          // src prefix only -> empty rule
		[]byte{4, 4, 0x91, 0x01, 0x00},          // FSPort, wide operator
		[]byte{6, 3, 0xA1, 0x00, 0x00, 0x00, 6}, // 4-byte proto value, truncates
		// Malformed component lists.
		[]byte{},
		[]byte{0},
		[]byte{4, 2, 1, 2, 3},    // out-of-order components
		[]byte{3, 3, 0x91, 0xFF}, // truncated wide operator value
		[]byte{2, 7, 0x81},       // unsupported component type
	)
}

// writeCorpus writes one seed file per input under testdata/fuzz/<target>.
func writeCorpus(target string, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	for i, b := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Printf("wrote %d corpus files to %s\n", len(seeds), dir)
}
