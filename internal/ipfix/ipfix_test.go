package ipfix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecord(i int) FlowRecord {
	return FlowRecord{
		Start:   time.UnixMilli(1538000000000 + int64(i)*37).UTC(),
		SrcMAC:  MAC(0x02abcdef0000 + uint64(i)),
		DstMAC:  MAC(0x06badc0ffee0),
		SrcIP:   0xc0000200 + uint32(i%250),
		DstIP:   0xcb007105,
		SrcPort: uint16(1024 + i),
		DstPort: 123,
		Proto:   17,
		Packets: 1,
		Bytes:   468,
	}
}

func sampleRecords(n int) []FlowRecord {
	recs := make([]FlowRecord, n)
	for i := range recs {
		recs[i] = sampleRecord(i)
	}
	return recs
}

func TestRoundTripSingleRecord(t *testing.T) {
	rec := sampleRecord(0)
	got, err := ReadAll(bytes.NewReader(encodeStream(t, []FlowRecord{rec}, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0] != rec {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], rec)
	}
}

// TestRoundTripManyMessages round-trips a stream under every kind of
// BatchSize: out of range below (clamped to one record per message),
// small (many messages, exercising template re-emission), and beyond
// what a message can hold (clamped to maxRecordsPerMsg).
func TestRoundTripManyMessages(t *testing.T) {
	const n = 10000
	recs := sampleRecords(n)
	for _, batch := range []int{0, 1, 16, maxRecordsPerMsg + 1} {
		got, err := ReadAll(bytes.NewReader(encodeStream(t, recs, batch)))
		if err != nil {
			t.Fatalf("BatchSize %d: %v", batch, err)
		}
		if len(got) != n {
			t.Fatalf("BatchSize %d: read %d records, want %d", batch, len(got), n)
		}
		for i := 0; i < n; i += 997 {
			if got[i] != recs[i] {
				t.Fatalf("BatchSize %d: record %d mismatch", batch, i)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8, pkts, octets uint64, macLow uint32) bool {
		rec := FlowRecord{
			Start:   time.UnixMilli(1538000000123).UTC(),
			SrcMAC:  MAC(uint64(macLow)) & 0xffffffffffff,
			DstMAC:  MAC(0x020000000000 | uint64(macLow>>8)),
			SrcIP:   srcIP,
			DstIP:   dstIP,
			SrcPort: srcPort,
			DstPort: dstPort,
			Proto:   proto,
			Packets: pkts,
			Bytes:   octets,
		}
		got, err := ReadAll(bytes.NewReader(encodeStream(t, []FlowRecord{rec}, 1024)))
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC(0x0123456789ab)
	if got := m.String(); got != "01:23:45:67:89:ab" {
		t.Fatalf("MAC.String = %q", got)
	}
	if got := MAC(0).String(); got != "00:00:00:00:00:00" {
		t.Fatalf("zero MAC = %q", got)
	}
}

func TestReaderRejectsWrongVersion(t *testing.T) {
	data := encodeStream(t, sampleRecords(1), 1024)
	data[0], data[1] = 0, 9 // NetFlow v9, not IPFIX
	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Fatal("version 9 accepted")
	}
}

func TestReaderRejectsDataBeforeTemplate(t *testing.T) {
	// Craft a message with only a data set for an unknown template.
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint16(b, ipfixVersion)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint32(b, 0) // export time
	b = binary.BigEndian.AppendUint32(b, 0) // seq
	b = binary.BigEndian.AppendUint32(b, 0) // domain
	b = binary.BigEndian.AppendUint16(b, 300)
	b = binary.BigEndian.AppendUint16(b, setHeaderLen+4)
	b = append(b, 1, 2, 3, 4)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	if _, err := ReadAll(bytes.NewReader(b)); err == nil {
		t.Fatal("data set without template accepted")
	}
}

func TestReaderRejectsTruncated(t *testing.T) {
	data := encodeStream(t, sampleRecords(1), 1024)
	for cut := 1; cut < len(data); cut += 11 {
		if _, err := ReadAll(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReaderSkipsOptionsTemplateSet(t *testing.T) {
	buf := bytes.NewBuffer(encodeStream(t, sampleRecords(1), 1024))
	// Append a message containing an options-template set (id 3) which
	// must be skipped, then a normal message.
	var m []byte
	m = binary.BigEndian.AppendUint16(m, ipfixVersion)
	m = append(m, 0, 0)
	m = binary.BigEndian.AppendUint32(m, 0)
	m = binary.BigEndian.AppendUint32(m, 0)
	m = binary.BigEndian.AppendUint32(m, 0)
	m = binary.BigEndian.AppendUint16(m, 3) // options template set
	m = binary.BigEndian.AppendUint16(m, setHeaderLen+4)
	m = append(m, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(m[2:4], uint16(len(m)))
	buf.Write(m)

	got, err := ReadAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d records, want 1", len(got))
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v %v", got, err)
	}
}

func TestStreamingReaderInterleavesWithWriter(t *testing.T) {
	const n = 100
	rd := NewReader(bytes.NewReader(encodeStream(t, sampleRecords(n), 8)))
	var b RecordBatch
	count := 0
	for {
		err := rd.NextBatch(&b)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 || b.Len() > 8 {
			t.Fatalf("batch of %d records from 8-record messages", b.Len())
		}
		count += b.Len()
	}
	if count != n {
		t.Fatalf("streamed %d records, want %d", count, n)
	}
}

func TestTemplateWithUnknownElementSkipped(t *testing.T) {
	// Build a stream whose template includes an element we don't know
	// (paddingOctets, id 210, 2 bytes) between known fields. The decoder
	// must skip it by length and still recover the known fields.
	var b []byte
	b = binary.BigEndian.AppendUint16(b, ipfixVersion)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	b = binary.BigEndian.AppendUint32(b, 0)
	// Template set: id 700 with srcIP, padding(2), dstPort.
	b = binary.BigEndian.AppendUint16(b, templateSetID)
	b = binary.BigEndian.AppendUint16(b, setHeaderLen+4+3*4)
	b = binary.BigEndian.AppendUint16(b, 700)
	b = binary.BigEndian.AppendUint16(b, 3)
	b = binary.BigEndian.AppendUint16(b, ieSourceIPv4Address)
	b = binary.BigEndian.AppendUint16(b, 4)
	b = binary.BigEndian.AppendUint16(b, 210)
	b = binary.BigEndian.AppendUint16(b, 2)
	b = binary.BigEndian.AppendUint16(b, ieDestTransportPort)
	b = binary.BigEndian.AppendUint16(b, 2)
	// Data set: one record.
	b = binary.BigEndian.AppendUint16(b, 700)
	b = binary.BigEndian.AppendUint16(b, setHeaderLen+8)
	b = binary.BigEndian.AppendUint32(b, 0x0a0b0c0d)
	b = append(b, 0xff, 0xff) // padding bytes
	b = binary.BigEndian.AppendUint16(b, 443)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))

	got, err := ReadAll(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SrcIP != 0x0a0b0c0d || got[0].DstPort != 443 {
		t.Fatalf("got %+v", got)
	}
}
