package ipfix

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// benchBatch is one full message worth of records.
func benchBatch() *RecordBatch {
	b := &RecordBatch{Recs: make([]FlowRecord, 1024)}
	for i := range b.Recs {
		b.Recs[i] = benchRecord()
	}
	return b
}

// BenchmarkWriteBatch measures flow-record export throughput.
func BenchmarkWriteBatch(b *testing.B) {
	w := NewWriter(io.Discard, 1)
	batch := benchBatch()
	b.ReportAllocs()
	b.SetBytes(int64(flowRecordLen * batch.Len()))
	for i := 0; i < b.N; i++ {
		if err := w.WriteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNextBatch measures flow-record parse throughput.
func BenchmarkNextBatch(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	batch := benchBatch()
	for i := 0; i < 100; i++ {
		w.WriteBatch(batch)
	}
	w.Flush()
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(flowRecordLen * batch.Len()))
	b.ResetTimer()
	rd := NewReader(bytes.NewReader(data))
	for i := 0; i < b.N; i++ {
		err := rd.NextBatch(batch)
		if errors.Is(err, io.EOF) {
			rd = NewReader(bytes.NewReader(data))
			err = rd.NextBatch(batch)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecord() FlowRecord {
	return FlowRecord{
		Start: time.UnixMilli(1538000000123), SrcMAC: 0x020123, DstMAC: 0x066666,
		SrcIP: 0x50000001, DstIP: 0x28000005, SrcPort: 389, DstPort: 40000,
		Proto: 17, Packets: 1, Bytes: 1400,
	}
}
