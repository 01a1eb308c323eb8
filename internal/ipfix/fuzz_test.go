package ipfix

import (
	"bytes"
	"encoding/binary"
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

// datagrams frames messages as FuzzMsgDecoderDatagrams reads its input:
// each behind its big-endian 16-bit length.
func datagrams(msgs ...[]byte) []byte {
	var b []byte
	for _, m := range msgs {
		b = binary.BigEndian.AppendUint16(b, uint16(len(m)))
		b = append(b, m...)
	}
	return b
}

// FuzzMsgDecoderDatagrams splits its input into datagrams, each behind a
// big-endian 16-bit length, and feeds them to one MsgDecoder that lives
// across them, as the live collector does: a template learned from one
// datagram decodes the next. Each datagram is handed over as a window of
// the input whose capacity runs on over the datagrams after it, as a
// pooled read buffer's does, while a second decoder reads an
// exact-capacity copy: a read past the datagram's end would make the two
// disagree, or the second panic. They must agree on header, records and
// failure, and no datagram may yield more records than its data bytes
// hold (a template's record is at least one byte).
func FuzzMsgDecoderDatagrams(f *testing.F) {
	recs := fuzzSeedRecords()
	enc := NewMsgEncoder(1)
	first := bytes.Clone(enc.Encode(recs, true, 1))
	next := bytes.Clone(enc.Encode(recs[:2], false, 2))
	tmpl := bytes.Clone(enc.Encode(nil, true, 3))
	f.Add(datagrams(first, next))
	f.Add(datagrams(next, tmpl, next))             // data before its template, then after
	f.Add(datagrams(first[:len(first)-5], next))   // a datagram cut short of its length field
	f.Add(append(datagrams(first), 0xff, 0xff, 0)) // a length past the input's end
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		wide, exact := NewMsgDecoder(), NewMsgDecoder()
		var dst []FlowRecord
		for rest := data; len(rest) >= 2; {
			n := min(int(binary.BigEndian.Uint16(rest)), len(rest)-2)
			dg := rest[2 : 2+n]
			rest = rest[2+n:]
			got, gotHdr, gotErr := wide.Decode(dg, dst[:0])
			want, wantHdr, wantErr := exact.Decode(append([]byte(nil), dg...)[:n:n], nil)
			if (gotErr == nil) != (wantErr == nil) || gotHdr != wantHdr {
				t.Fatalf("a %d-byte datagram decodes to %+v, %v inside a wider buffer and %+v, %v alone",
					n, gotHdr, gotErr, wantHdr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("a %d-byte datagram yields %d records inside a wider buffer and %d alone", n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d of a %d-byte datagram: %+v inside a wider buffer, %+v alone", i, n, got[i], want[i])
				}
			}
			if len(got) > max(0, n-msgHeaderLen-setHeaderLen) {
				t.Fatalf("a %d-byte datagram yields %d records", n, len(got))
			}
			dst = got
		}
	})
}
