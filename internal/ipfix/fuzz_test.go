package ipfix

import (
	"bytes"
	"testing"
	"time"
)

// fuzzSeedRecords are hand-picked flow records whose encoded streams seed
// the round-trip fuzzer (besides the checked-in corpus under
// testdata/fuzz): an ordinary TCP sample, a blackholed UDP sample, an
// ICMP record with zero ports, zero-value and extreme-value counters, and
// a pre-epoch timestamp that exercises the signed UnixMilli path.
func fuzzSeedRecords() []FlowRecord {
	return []FlowRecord{
		{
			Start:  time.UnixMilli(1537920000123).UTC(),
			SrcMAC: 0x0a0000000001, DstMAC: 0x0a0000000002,
			SrcIP: 0xC6336405, DstIP: 0xCB007105,
			SrcPort: 443, DstPort: 51234, Proto: 6,
			Packets: 1, Bytes: 1500,
		},
		{
			Start:  time.UnixMilli(1537920060000).UTC(),
			SrcMAC: 0x0a0000000003, DstMAC: 0x0600666666, // blackhole-style MAC
			SrcIP: 1, DstIP: 2,
			SrcPort: 123, DstPort: 53, Proto: 17,
			Packets: 1, Bytes: 468,
		},
		{
			Start: time.UnixMilli(0).UTC(),
			Proto: 1, // ICMP, zero ports, zero counters
		},
		{
			Start:  time.UnixMilli(-1000).UTC(), // before the epoch
			SrcMAC: 0xffffffffffff, DstMAC: 0xffffffffffff,
			SrcIP: 0xffffffff, DstIP: 0xffffffff,
			SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff,
			Packets: 1<<64 - 1, Bytes: 1<<64 - 1,
		},
	}
}

// encodeStream serializes recs into one IPFIX byte stream with the given
// batch size (records per message).
func encodeStream(t testing.TB, recs []FlowRecord, batchSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.BatchSize = batchSize
	if err := w.WriteBatch(&RecordBatch{Recs: recs}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordsEqual compares two flow records field by field. Start is compared
// by UnixMilli, the wire precision; everything else is exact.
func recordsEqual(a, b *FlowRecord) bool {
	return a.Start.UnixMilli() == b.Start.UnixMilli() &&
		a.SrcMAC == b.SrcMAC && a.DstMAC == b.DstMAC &&
		a.SrcIP == b.SrcIP && a.DstIP == b.DstIP &&
		a.SrcPort == b.SrcPort && a.DstPort == b.DstPort &&
		a.Proto == b.Proto &&
		a.Packets == b.Packets && a.Bytes == b.Bytes
}

// FuzzIPFIXRoundTrip feeds arbitrary bytes to the template-driven decoder
// and demands that every record it accepts — even from a stream that
// later turns out to be torn — survives a canonical re-encode and decode
// unchanged, and that the canonical encoding is a fixed point. This
// mirrors FuzzUpdateRoundTrip in internal/bgp for the data plane's wire
// format.
func FuzzIPFIXRoundTrip(f *testing.F) {
	recs := fuzzSeedRecords()
	f.Add(encodeStream(f, recs, 1024)) // single message
	f.Add(encodeStream(f, recs, 1))    // one record per message
	f.Add(encodeStream(f, recs[:1], 2))
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // header-only message
	f.Add([]byte{0, 9, 0, 16})                                      // wrong version

	f.Fuzz(func(t *testing.T, data []byte) {
		// Records decoded before any stream error are valid; the error
		// only ends the stream.
		recs, _ := ReadAll(bytes.NewReader(data))
		if len(recs) == 0 {
			return
		}

		enc := encodeStream(t, recs, 3) // small batches: multi-message output
		recs2, err := ReadAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of canonical stream failed: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			if !recordsEqual(&recs[i], &recs2[i]) {
				t.Fatalf("record %d changed:\nfirst:  %+v\nsecond: %+v", i, recs[i], recs2[i])
			}
		}

		enc2 := encodeStream(t, recs2, 3)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point (%d vs %d bytes)", len(enc), len(enc2))
		}
	})
}
