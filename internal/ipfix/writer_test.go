package ipfix

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// plainWriter is the Writer in its synchronous form: the same Packer fed
// and encoded on the caller's goroutine, writing through the same bufio
// buffer. The pipelined Writer must produce its bytes exactly.
type plainWriter struct {
	bw *bufio.Writer
	p  *Packer
}

func newPlainWriter(w io.Writer, batchSize int) *plainWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	limit := min(max(batchSize, 1), MaxRecords(maxMsgLen, true))
	return &plainWriter{bw: bw, p: NewPacker(NewMsgEncoder(1), limit, templateResendEvery, func(msg []byte, _ int, _ uint32) error {
		_, err := bw.Write(msg)
		return err
	})}
}

func (pw *plainWriter) Flush() error {
	if err := pw.p.Flush(); err != nil {
		return err
	}
	return pw.bw.Flush()
}

// randomRecords returns n records with random fields and ascending start
// times, so export times vary from message to message.
func randomRecords(rng *rand.Rand, n int) []FlowRecord {
	recs := make([]FlowRecord, n)
	ms := int64(1538000000000)
	for i := range recs {
		ms += rng.Int63n(5000)
		recs[i] = FlowRecord{
			Start:  time.UnixMilli(ms).UTC(),
			SrcMAC: MAC(rng.Uint64() & 0xffffffffffff), DstMAC: MAC(rng.Uint64() & 0xffffffffffff),
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: uint8(rng.Uint32()),
			Packets: rng.Uint64(), Bytes: rng.Uint64(),
		}
	}
	return recs
}

// TestWriterMatchesPacker feeds the pipelined Writer and its synchronous
// reference the same stream, cut into random batches (empty ones
// included) with Flushes at random points, and requires the same bytes
// after every Flush. The batch sizes cover one record a message, an odd
// size, the default and the most a message holds; the small ones run past
// templateResendEvery messages, so the template resend is covered too.
func TestWriterMatchesPacker(t *testing.T) {
	for _, batchSize := range []int{1, 7, 1024, MaxRecords(maxMsgLen, true)} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("batch=%d/seed=%d", batchSize, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				recs := randomRecords(rng, 2000+rng.Intn(6000))
				var got, want bytes.Buffer
				w := NewWriter(&got, 1)
				w.BatchSize = batchSize
				ref := newPlainWriter(&want, batchSize)
				flushes := 0
				flush := func() {
					flushes++
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := ref.Flush(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("after flush %d: %d bytes, reference %d, first difference at %d",
							flushes, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
					}
				}
				for rest := recs; len(rest) > 0; {
					n := 0
					if rng.Intn(8) > 0 { // one batch in eight is empty
						n = min(1+rng.Intn(3*batchSize), len(rest))
					}
					if err := w.WriteBatch(&RecordBatch{Recs: rest[:n]}); err != nil {
						t.Fatal(err)
					}
					if err := ref.p.Pack(rest[:n]); err != nil {
						t.Fatal(err)
					}
					rest = rest[n:]
					if rng.Intn(50) == 0 {
						flush()
						if rng.Intn(2) == 0 {
							flush() // a Flush with nothing pending
						}
					}
				}
				flush()
				if msgs := ref.p.msgs; batchSize < 10 && msgs <= templateResendEvery {
					t.Fatalf("%d messages do not reach the template resend", msgs)
				}
				decoded, err := ReadAll(bytes.NewReader(got.Bytes()))
				if err != nil || len(decoded) != len(recs) {
					t.Fatalf("decoded %d of %d records: %v", len(decoded), len(recs), err)
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

var errDiskFull = errors.New("disk full")

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errDiskFull
}

// TestWriterReportsWriteError pins that a write the encoder goroutine
// fails is never lost: it surfaces from a later WriteBatch or from Flush,
// every call after it returns it too, and the goroutine is gone once
// Flush returns.
func TestWriterReportsWriteError(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(7)), 1000)
	for _, k := range []int{0, 100, 1 << 16, 1 << 18, 1 << 20} {
		t.Run(fmt.Sprintf("fail-after=%d", k), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w := NewWriter(&failingWriter{n: k}, 1)
			w.BatchSize = 100
			var werr error
			for i := 0; i < 200 && werr == nil; i++ { // 200k records, ~10 MB
				werr = w.WriteBatch(&RecordBatch{Recs: recs})
			}
			ferr := w.Flush()
			if !errors.Is(ferr, errDiskFull) {
				t.Fatalf("Flush = %v, want the write error (WriteBatch said %v)", ferr, werr)
			}
			if werr != nil && !errors.Is(werr, errDiskFull) {
				t.Fatalf("WriteBatch = %v, want the write error", werr)
			}
			if err := w.WriteBatch(&RecordBatch{Recs: recs}); !errors.Is(err, errDiskFull) {
				t.Fatalf("WriteBatch after the error = %v, want it again", err)
			}
			if err := w.Flush(); !errors.Is(err, errDiskFull) {
				t.Fatalf("second Flush = %v, want the error again", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Flush, %d before the writer", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestWriterSteadyStateAllocs pins that once the buffer ring is full, a
// message costs no allocation on either side of it.
func TestWriterSteadyStateAllocs(t *testing.T) {
	w := NewWriter(io.Discard, 1)
	batch := benchBatch()
	for i := 0; i < 2*writerRing; i++ {
		if err := w.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.WriteBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.2f allocations per message in steady state, want 0", allocs)
	}
}
