package rtbh

import (
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/pipeline"
	"repro/internal/ip2as"
	"repro/internal/ipfix"
	"repro/internal/peeringdb"
)

// ReferenceMetadata decodes dir's metadata.json and joins it with the
// given side tables, as OpenDataset does (TestOpenDatasetMatchesReference).
func ReferenceMetadata(dir string, tbl *ip2as.Table, pdb *peeringdb.Registry) (*analysis.Metadata, error) {
	var dm datasetMeta
	if err := readJSON(filepath.Join(dir, FileMetadata), &dm); err != nil {
		return nil, err
	}
	return newMetadata(dm, tbl, pdb), nil
}

// TailReplayStates computes the finalized, marshaled pipeline state over
// everything observed so far twice: once replaying the unsealed tail
// through a plain clone on the caller, which keeps the sealed side's wide
// gates, and once through a frozen clone's lanes, the way frozen does. The
// two must be byte-equal (TestFrozenReplayMatchesSpeculative).
func (a *OnlineAnalyzer) TailReplayStates() (wide, frozen []byte, err error) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.advanceLocked()
	_, _, pend, _ := a.ingestView()
	finalized := func(clone *pipeline.Pipeline, inline bool) ([]byte, error) {
		pend.observe(clone, a.head, inline)
		clone.Finalize()
		return clone.MarshalState()
	}
	if wide, err = finalized(a.ops.Clone(), true); err != nil {
		return nil, nil, err
	}
	clone := a.ops.Clone()
	clone.Freeze()
	frozen, err = finalized(clone, false)
	return wide, frozen, err
}

// Pass runs the batch pass behind Analyze and returns the pipeline it
// leaves, before compose.
func (d *Dataset) Pass(opts Options) (*pipeline.Pipeline, error) { return d.pass(opts) }

// Pipelines calls fn, under the analyzer's lock, with its sealed pipeline
// and the frozen clone a snapshot composes: the sealed state plus the
// unsealed tail replayed through its lanes.
func (a *OnlineAnalyzer) Pipelines(fn func(sealed, frozen *pipeline.Pipeline)) error {
	return a.frozen(false, func(clone *pipeline.Pipeline) error {
		fn(a.ops, clone)
		return nil
	})
}

// IngestInterleaved feeds a the dataset's control and FlowSpec updates and
// the given flow batches in timestamp order: before each batch every
// update stamped no later than its first record, the rest at the end.
// That is the order the looking-glass replay and the live sequencer
// deliver, so a seal check finds a few new updates, not the whole stream
// or none.
func IngestInterleaved(a *OnlineAnalyzer, ds *Dataset, batches []*ipfix.RecordBatch) {
	ci, fi := 0, 0
	feed := func(due func(at int64) bool) {
		for ; ci < len(ds.Updates) && due(ds.Updates[ci].Time.UnixNano()); ci++ {
			a.ObserveControl(ds.Updates[ci])
		}
		for ; fi < len(ds.FlowUpdates) && due(ds.FlowUpdates[fi].Time.UnixNano()); fi++ {
			a.ObserveFlowSpec(ds.FlowUpdates[fi])
		}
	}
	for _, b := range batches {
		first := b.Recs[0].Start.UnixNano()
		feed(func(at int64) bool { return at <= first })
		a.ObserveFlowBatch(b)
	}
	feed(func(int64) bool { return true })
}

// PendingState reports how many pooled chunks the pending FIFO holds, the
// capacity of the smallest, and how many records are not sealed yet.
func (a *OnlineAnalyzer) PendingState() (chunks, chunkCap int, retained int64) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.chunks {
		if chunkCap == 0 || len(c.Recs) < chunkCap {
			chunkCap = len(c.Recs)
		}
	}
	return len(a.chunks), chunkCap, a.flowCount - a.sealed
}

// PlanJournal returns the fault journal of exchange i's own plan, the
// string ChaosJournal returned when a live run had one exchange and one
// plan.
func (lr *LiveRun) PlanJournal(i int) string { return lr.xs[i].plan.Journal() }
