//go:build ignore

// Regenerates the FuzzIPFIXRoundTrip seed corpus:
//
//	go run gen_fuzz_corpus.go
//
// The corpus covers the interesting encoder/decoder shapes: single- and
// multi-message streams, one-record batches (template resent per the
// writer's schedule), extreme field values, a pre-epoch timestamp, and a
// few deliberately malformed streams (bad version, truncated body, data
// set before its template, padding bytes).
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ipfix"
)

func encode(recs []ipfix.FlowRecord, batchSize int) []byte {
	var buf bytes.Buffer
	w := ipfix.NewWriter(&buf, 1)
	w.BatchSize = batchSize
	if err := w.WriteBatch(&ipfix.RecordBatch{Recs: recs}); err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func main() {
	recs := []ipfix.FlowRecord{
		{
			Start:  time.UnixMilli(1537920000123).UTC(),
			SrcMAC: 0x0a0000000001, DstMAC: 0x0a0000000002,
			SrcIP: 0xC6336405, DstIP: 0xCB007105,
			SrcPort: 443, DstPort: 51234, Proto: 6,
			Packets: 1, Bytes: 1500,
		},
		{
			Start:  time.UnixMilli(1537920060000).UTC(),
			SrcMAC: 0x0a0000000003, DstMAC: 0x0600666666,
			SrcIP: 1, DstIP: 2,
			SrcPort: 123, DstPort: 53, Proto: 17,
			Packets: 1, Bytes: 468,
		},
		{Start: time.UnixMilli(0).UTC(), Proto: 1},
		{
			Start:  time.UnixMilli(-1000).UTC(),
			SrcMAC: 0xffffffffffff, DstMAC: 0xffffffffffff,
			SrcIP: 0xffffffff, DstIP: 0xffffffff,
			SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff,
			Packets: 1<<64 - 1, Bytes: 1<<64 - 1,
		},
	}

	streams := [][]byte{
		encode(recs, 1024),
		encode(recs, 1),
		encode(recs[:2], 2),
	}

	// A valid stream with trailing set padding: take the one-batch stream
	// and append a second message whose data set carries 3 padding bytes.
	padded := append([]byte(nil), encode(recs[:1], 1024)...)
	var msg []byte
	msg = binary.BigEndian.AppendUint16(msg, 10) // version
	msg = append(msg, 0, 0)                      // length placeholder
	msg = binary.BigEndian.AppendUint32(msg, 1537920000)
	msg = binary.BigEndian.AppendUint32(msg, 1) // sequence
	msg = binary.BigEndian.AppendUint32(msg, 1) // domain
	set := encode(recs[1:2], 1024)
	// Extract the data set of the second stream (after its 16-byte header
	// and template set) and re-emit it with padding.
	tmplSetLen := int(binary.BigEndian.Uint16(set[18:20]))
	dataSet := set[16+tmplSetLen:]
	msg = append(msg, dataSet...)
	msg = append(msg, 0, 0, 0) // set padding
	binary.BigEndian.PutUint16(msg[len(msg)-len(dataSet)-3+2:], uint16(len(dataSet)+3))
	binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
	streams = append(streams, append(padded, msg...))

	streams = append(streams,
		[]byte{},
		[]byte{0, 9, 0, 16},  // unsupported version
		[]byte{0, 10, 0, 15}, // length below header size
		[]byte{0, 10, 0, 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 8}, // data set, unknown template
		[]byte{0, 10, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // header-only
	)

	dir := filepath.Join("testdata", "fuzz", "FuzzIPFIXRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	for i, b := range streams {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Printf("wrote %d corpus files to %s\n", len(streams), dir)
}
