package ipfix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// ipfixStream encodes records in batches of batch and returns the raw
// bytes plus each message's start offset.
func ipfixStream(t *testing.T, n, batch int) ([]byte, []int) {
	t.Helper()
	raw := encodeStream(t, sampleRecords(n), batch)
	var starts []int
	for off := 0; off < len(raw); {
		starts = append(starts, off)
		off += int(binary.BigEndian.Uint16(raw[off+2 : off+4]))
	}
	return raw, starts
}

// TestReaderTruncationErrors cuts a valid stream inside the second
// message and asserts the error names the message index and stream
// offset instead of a bare io.ErrUnexpectedEOF.
func TestReaderTruncationErrors(t *testing.T) {
	valid, starts := ipfixStream(t, 12, 4) // 3 messages of 4 records each
	if len(starts) != 3 {
		t.Fatalf("stream has %d messages, want 3", len(starts))
	}
	second := starts[1]

	cases := []struct {
		name string
		cut  int
		want []string
	}{
		{"mid message header", second + 7, []string{"message 1", "truncated message header", "7 of 16"}},
		{"header only", second + msgHeaderLen, []string{"message 1", "truncated message body", "0 of"}},
		{"mid data record", second + msgHeaderLen + setHeaderLen + flowRecordLen/2, []string{"message 1", "truncated message body"}},
		{"mid final message", len(valid) - 1, []string{"message 2", "truncated message body"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadAll(bytes.NewReader(valid[:tc.cut]))
			if err == nil {
				t.Fatalf("no error for truncation at %d bytes", tc.cut)
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncation reported as clean EOF: %v", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
			wantRecs := 4
			if tc.cut >= starts[2] {
				wantRecs = 8
			}
			if len(recs) != wantRecs {
				t.Errorf("decoded %d records before error, want %d", len(recs), wantRecs)
			}
		})
	}
}

// TestReaderOffsetInError pins the reported offset to the actual message
// boundary.
func TestReaderOffsetInError(t *testing.T) {
	valid, starts := ipfixStream(t, 8, 4)
	_, err := ReadAll(bytes.NewReader(valid[:starts[1]+3]))
	if err == nil {
		t.Fatal("expected error")
	}
	want := fmt.Sprintf("ipfix: message 1 at offset %d:", starts[1])
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q missing %q", err, want)
	}
}

// TestReaderSetErrors corrupts set structure (rather than truncating the
// file) and checks the set index is reported.
func TestReaderSetErrors(t *testing.T) {
	t.Run("invalid set length", func(t *testing.T) {
		valid, starts := ipfixStream(t, 8, 4)
		data := append([]byte(nil), valid...)
		// Second message carries a single data set; overstate its length.
		setLenOff := starts[1] + msgHeaderLen + 2
		binary.BigEndian.PutUint16(data[setLenOff:], 0xfff0)
		_, err := ReadAll(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "set 0: invalid set length") {
			t.Fatalf("err = %v, want set 0 invalid set length", err)
		}
	})
	t.Run("unknown template", func(t *testing.T) {
		valid, starts := ipfixStream(t, 8, 4)
		// Drop the first message (which carries the template set): the
		// second message's data set now references an unlearned template.
		_, err := ReadAll(bytes.NewReader(valid[starts[1]:]))
		if err == nil || !strings.Contains(err.Error(), "unknown template") {
			t.Fatalf("err = %v, want unknown template", err)
		}
	})
}

// TestMsgDecoderDatagramErrors exercises the datagram entry point used by
// the live collector.
func TestMsgDecoderDatagramErrors(t *testing.T) {
	enc := NewMsgEncoder(7)
	recs := []FlowRecord{sampleRecord(0), sampleRecord(1)}
	msg := append([]byte(nil), enc.Encode(recs, true, 1234)...)

	d := NewMsgDecoder()
	out, hdr, err := d.Decode(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || hdr.Domain != 7 || hdr.SeqNum != 0 || hdr.ExportTime != 1234 {
		t.Fatalf("decode = %d records, hdr %+v", len(out), hdr)
	}
	if enc.SeqNum() != 2 {
		t.Fatalf("encoder seq = %d, want 2", enc.SeqNum())
	}

	if _, _, err := d.Decode(msg[:10], nil); err == nil || !strings.Contains(err.Error(), "short message") {
		t.Fatalf("short datagram: err = %v", err)
	}
	if _, _, err := d.Decode(msg[:len(msg)-5], nil); err == nil || !strings.Contains(err.Error(), "datagram size") {
		t.Fatalf("length mismatch: err = %v", err)
	}
	// A fresh decoder has not learned the template: data-only message.
	msg2 := append([]byte(nil), enc.Encode(recs, false, 1234)...)
	if _, _, err := NewMsgDecoder().Decode(msg2, nil); err == nil || !strings.Contains(err.Error(), "unknown template") {
		t.Fatalf("unknown template: err = %v", err)
	}
}

// TestMaxRecords checks the datagram packing bound.
func TestMaxRecords(t *testing.T) {
	if got := MaxRecords(1400, true); got != (1400-msgHeaderLen-setHeaderLen-templateSetLen)/flowRecordLen {
		t.Fatalf("MaxRecords(1400, template) = %d", got)
	}
	withT, without := MaxRecords(1400, true), MaxRecords(1400, false)
	if withT >= without {
		t.Fatalf("template should cost records: %d >= %d", withT, without)
	}
	if MaxRecords(10, true) != 0 {
		t.Fatal("tiny budget should fit zero records")
	}
	if MaxRecords(1<<30, false) != maxRecordsPerMsg {
		t.Fatal("bound must respect 16-bit message length")
	}
}
