package ipfix

import (
	"sync"
	"sync/atomic"
)

// RecordBatch is the unit of transfer on the hot record path: a reusable
// slice of FlowRecords with pooled backing storage, produced by the fabric
// sampling stage (one batch per injected traffic batch, so records share
// headers by construction) and by the IPFIX reader (one batch per decoded
// message).
//
// Ownership. A batch obtained from GetBatch carries one reference, held by
// the producer. Sinks receiving a batch borrow it for the duration of the
// call; a sink that needs the records after returning must Retain the
// batch and Release it when done. The producer Releases its reference
// after the sink returns; the last Release resets the batch and returns it
// to the pool, so a full steady-state pass allocates no per-record memory.
type RecordBatch struct {
	Recs []FlowRecord

	refs atomic.Int32
}

// BatchSink consumes one batch of flow records. The callee borrows the
// batch; see the RecordBatch ownership contract.
type BatchSink func(*RecordBatch) error

// defaultBatchCap sizes fresh batch backing arrays to one full IPFIX
// message worth of records, the largest batch the reader produces.
const defaultBatchCap = maxRecordsPerMsg

var batchPool = sync.Pool{
	New: func() any {
		return &RecordBatch{Recs: make([]FlowRecord, 0, defaultBatchCap)}
	},
}

// GetBatch returns an empty batch with one reference held by the caller.
func GetBatch() *RecordBatch {
	b := batchPool.Get().(*RecordBatch)
	b.refs.Store(1)
	return b
}

// Retain adds a reference, allowing the batch to outlive the sink call
// that delivered it. Pair with Release.
func (b *RecordBatch) Retain() { b.refs.Add(1) }

// Release drops one reference. The last release clears the batch and
// returns it to the pool; the caller must not touch it afterwards.
func (b *RecordBatch) Release() {
	if b.refs.Add(-1) == 0 {
		b.Recs = b.Recs[:0]
		batchPool.Put(b)
	}
}

// Len returns the number of records in the batch.
func (b *RecordBatch) Len() int { return len(b.Recs) }
