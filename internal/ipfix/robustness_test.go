package ipfix

import (
	"bytes"
	"testing"

	"repro/internal/stats"
)

// TestReaderNeverPanicsOnCorruption feeds the reader random corruptions
// of a valid stream: every read must return records or an error, never
// panic.
func TestReaderNeverPanicsOnCorruption(t *testing.T) {
	valid := encodeStream(t, sampleRecords(64), 4)

	r := stats.NewRNG(0xc0ffee)
	for trial := 0; trial < 5000; trial++ {
		data := append([]byte(nil), valid...)
		switch trial % 3 {
		case 0:
			for k := 0; k < 1+r.Intn(6); k++ {
				data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
			}
		case 1:
			data = data[:r.Intn(len(data)+1)]
		default:
			data = make([]byte, r.Intn(200))
			for i := range data {
				data[i] = byte(r.Uint64())
			}
		}
		_, _ = ReadAll(bytes.NewReader(data)) // must not panic
	}
}
