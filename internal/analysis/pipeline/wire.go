package pipeline

import (
	"fmt"

	"repro/internal/analysis"
)

// stateWireVersion is the pipeline state codec version. Version 2 added
// the mitigation operator as the seventh snapshot section.
const stateWireVersion = 2

// MarshalState encodes the pipeline's complete flow-derived state: the
// cleaning counters, the speculative pair tallies, and the seven operator
// snapshots, each as a versioned section. The control-plane view
// (events, index) is deliberately absent — it is cheaply rebuilt from
// the update stream, which federation snapshots carry alongside this
// blob, and the decoded pipeline is rebound to it (Rebind).
func (p *Pipeline) MarshalState() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(stateWireVersion)
	w.Varint(p.TotalRecords)
	w.Varint(p.InternalRecords)
	w.Varint(p.AttributedRecords)
	w.Varint(p.DroppedRecords)
	w.Bool(p.speculative)
	keys := make([]uint64, 0, len(p.pairs))
	for k := range p.pairs {
		keys = append(keys, k)
	}
	sorted := analysis.SortedU64(keys)
	w.Uvarint(uint64(len(sorted)))
	for _, k := range sorted {
		w.Uvarint(k)
		w.Varint(p.pairs[k])
	}
	type marshaler interface{ MarshalBinary() ([]byte, error) }
	for _, op := range []marshaler{p.Drop, p.Anomaly, p.Proto, p.Hosts, p.Align, p.Pending, p.Mit} {
		blob, err := op.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// UnmarshalState decodes a pipeline state blob produced by MarshalState
// at an exchange with the given number of events: an event-keyed section
// naming an event ID at or past it fails the decode. The returned
// pipeline carries no control-plane view: call Rebind with the events and
// index rebuilt from the corresponding update stream before composing a
// report. meta may be nil when only the operator state matters (e.g.
// codec validation); such a pipeline must not observe records.
func UnmarshalState(meta *analysis.Metadata, data []byte, events int) (*Pipeline, error) {
	r := analysis.NewWireReader(data)
	r.Version(stateWireVersion)
	p := newEmpty(meta)
	p.TotalRecords = r.Varint()
	p.InternalRecords = r.Varint()
	p.AttributedRecords = r.Varint()
	p.DroppedRecords = r.Varint()
	p.speculative = r.Bool()
	p.wide = p.speculative
	nPairs := r.Count(2)
	if p.speculative || nPairs > 0 {
		p.pairs = make(map[uint64]int64, nPairs)
	}
	var order analysis.KeyOrder
	for i := 0; i < nPairs; i++ {
		k := r.Uvarint()
		order.Next(r, k)
		p.pairs[k] = r.Varint()
	}
	type eventKeyed interface{ UnmarshalEvents([]byte, int) error }
	bounded := func(op eventKeyed) func([]byte) error {
		return func(b []byte) error { return op.UnmarshalEvents(b, events) }
	}
	for _, decode := range []func([]byte) error{
		bounded(p.Drop), p.Anomaly.UnmarshalBinary, bounded(p.Proto), p.Hosts.UnmarshalBinary,
		p.Align.UnmarshalBinary, bounded(p.Pending), p.Mit.UnmarshalBinary,
	} {
		blob := r.Blob()
		if r.Err() != nil {
			break
		}
		if err := decode(blob); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return p, nil
}

// Fold merges o's operator state into p — the exported entry point the
// federation coordinator uses to combine decoded per-IXP pipelines. o
// must not observe any further records.
func (p *Pipeline) Fold(o *Pipeline) {
	p.TotalRecords += o.TotalRecords
	p.InternalRecords += o.InternalRecords
	p.AttributedRecords += o.AttributedRecords
	p.DroppedRecords += o.DroppedRecords
	p.Drop.Merge(o.Drop)
	p.Anomaly.Merge(o.Anomaly)
	p.Proto.Merge(o.Proto)
	p.Hosts.Merge(o.Hosts)
	p.Align.Merge(o.Align)
	p.Pending.Merge(o.Pending)
	p.Mit.Merge(o.Mit)
	if p.pairs == nil && len(o.pairs) > 0 {
		p.pairs = make(map[uint64]int64, len(o.pairs))
	}
	for k, v := range o.pairs {
		p.pairs[k] += v
	}
}

// RemapEvents renames the events of every event-keyed operator through m
// (local event ID -> federated event ID; see analysis.PerEvent.Rename).
// The coordinator derives m by aligning each instance's locally
// merged events with the events merged over the union update stream. An
// operator that rejects m is left unchanged, but those before it are
// renamed: on error the pipeline is to be discarded, as the coordinator
// does.
func (p *Pipeline) RemapEvents(m map[int]int) error {
	for _, op := range []interface{ RemapEvents(map[int]int) error }{p.Drop, p.Proto, p.Pending} {
		if err := op.RemapEvents(m); err != nil {
			return err
		}
	}
	return nil
}

// Finalize freezes a speculative pipeline into the equivalent batch
// pipeline under the current — by then final — control-plane view: the
// speculative pair tallies resolve into the attributed-record count and
// the speculative host candidates are filtered to the ever-blackholed
// population, exactly the state a batch pass over the same stream with
// the full control plane known up front would hold. The live federation
// path calls this before shipping a snapshot, so batch and live
// instances ship interchangeable state. No-op on batch pipelines.
func (p *Pipeline) Finalize() {
	if !p.speculative {
		return
	}
	p.AttributedRecords = p.FinalAttributed()
	p.pairs = nil
	p.Hosts.Filter(p.EverBlackholed)
	p.speculative, p.wide = false, false
}
