package mrt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
)

// mrtStream encodes n keepalive records and returns the raw bytes plus
// the per-record boundaries (offset of each record start).
func mrtStream(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	starts := make([]int, 0, n)
	msg := bgp.EncodeKeepalive()
	for i := 0; i < n; i++ {
		starts = append(starts, buf.Len())
		err := w.WriteRecord(&Record{
			Timestamp: time.Unix(int64(1000+i), 0),
			PeerAS:    uint32(100 + i),
			LocalAS:   65500,
			Message:   msg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), starts
}

// TestReaderTruncationErrors cuts a valid stream at characteristic points
// inside the third record and asserts the error names the record index
// and stream offset instead of surfacing a bare io.ErrUnexpectedEOF.
func TestReaderTruncationErrors(t *testing.T) {
	valid, starts := mrtStream(t, 4)
	third := starts[2] // zero-based record 2

	cases := []struct {
		name string
		cut  int // byte length to keep
		want []string
	}{
		{"mid header", third + 5, []string{"record 2", "truncated record header"}},
		{"header only", third + 12, []string{"record 2", "truncated record body", "0 of"}},
		{"mid timestamp extension", third + 12 + 2, []string{"record 2", "truncated record body"}},
		{"mid BGP message", len(valid) - 3, []string{"record 3", "truncated record body"}},
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
			// The intact prefix must still have been decoded.
			wantRecs := 2
			if tc.cut >= starts[3] {
				wantRecs = 3
			}
			if len(recs) != wantRecs {
				t.Errorf("decoded %d records before error, want %d", len(recs), wantRecs)
			}
		})
	}
}

// TestReaderOffsetInError pins the reported offset to the actual record
// boundary so the message is usable for manual inspection with xxd.
func TestReaderOffsetInError(t *testing.T) {
	valid, starts := mrtStream(t, 3)
	_, err := ReadAll(bytes.NewReader(valid[:starts[1]+7]))
	if err == nil {
		t.Fatal("expected error")
	}
	want := fmt.Sprintf("mrt: record 1 at offset %d:", starts[1])
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q missing %q", err, want)
	}
}

// TestReaderCleanEOF makes sure hardening did not turn a well-formed end
// of stream into an error.
func TestReaderCleanEOF(t *testing.T) {
	valid, _ := mrtStream(t, 2)
	recs, err := ReadAll(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
}
