package analysis

// Operator is the incremental-operator contract shared by the seven
// streaming analysis stages whose state Pipeline.MarshalState writes
// (dropstats, anomaly, protomix, hosts, timealign, the collateral pending
// store and mitigation). An operator accumulates observations through
// its stage-specific Observe methods (Add, AddDropped, AddIncoming, ...),
// supports the three uniform lifecycle operations below, and derives its
// figures from the accumulated state only when asked:
//
//   - Observe (stage-specific signature): fold one flow observation into
//     the compact aggregate state. O(1) amortized per record; never
//     retains the raw record.
//   - Merge: fold another operator's state into this one — how a
//     federation combines its exchanges' pipelines (Pipeline.Fold). Exact
//     wherever the two sides' key populations are disjoint, and up to the
//     bounded structures' saturation where they overlap. Neither the
//     batch pass nor the online path merges: every operator sees the
//     whole stream in stream order, on the caller or on a lane of its own,
//     and snapshots are replayed into, not merged (see Snapshot).
//   - Snapshot: return an independent copy of the state; cost follows
//     what is written afterwards. Neither side ever sees the other's later
//     observations, and the original may go on observing while the copy
//     is read (it is the input of report composition). How the copy comes
//     about is the operator's business: the small operators copy their
//     state outright, while the keyed stores that hold nearly all of it
//     (hosts, collateral.Pending, anomaly) copy only their top-level
//     index and share every sub-aggregate until one side writes it (see Cow).
//     Either way a sub-aggregate reachable from a snapshot is never
//     written in place.
//
// An operator holds state only: the control-plane views and the cursors
// over them belong to the pipeline that feeds it, and the event
// numbering to the federation coordinator (see PerEvent.Rename).
//
// The control-plane stages (events, load, visibility, the Fig 10 sweep)
// deliberately do not implement this contract: they are pure functions of
// the retained control-update stream, which is several orders of
// magnitude smaller than the flow stream, and recomputing them at
// snapshot time is both cheap and trivially byte-identical to batch (see
// DESIGN.md, "Incremental analysis").
type Operator[T any] interface {
	Merge(T)
	Snapshot() T
}
