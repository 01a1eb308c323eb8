package mitigation

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// window is one FlowSpec mitigation interval [start, end) in unix
// nanoseconds: a discard rule installed at start and withdrawn at end. A
// rule still installed at the end of the measurement period covers
// through it, so its window ends one nanosecond past the period end.
// Nanosecond comparisons order exactly like time.Time for the in-range
// wall-clock timestamps the archives carry.
type window struct{ start, end int64 }

// Index answers "was a FlowSpec mitigation active for this destination
// at this time" queries, the FlowSpec counterpart of events.Index, and is
// queried through a Cursor the same way. Build it from the time-sorted
// FlowSpec update stream; the online analyzer extends it in place as the
// stream grows, which is safe for the same reason extending the event
// index is: a record is only sealed once no in-flight update can still
// cover it.
type Index struct {
	openEnd int64                   // end of a window still open: period end + 1ns
	spans   bgp.PrefixMap[[]window] // per prefix, sorted by start
	windows int
	// epoch counts the Extend calls that folded updates; a Cursor
	// resolved under another epoch resolves again.
	epoch uint64

	// flows is the time-sorted stream folded so far, kept to rebuild
	// from should an update arrive out of order; open locates the window
	// of every installed rule.
	flows []analysis.FlowUpdate
	open  map[ruleKey]windowRef
}

// ruleKey identifies an installed rule: its announcing member and its
// canonical wire encoding.
type ruleKey struct {
	peer uint32
	wire string
}

// windowRef is where a rule's open window sits in spans.
type windowRef struct {
	prefix bgp.Prefix
	i      int
}

// NewIndex pairs announcements with withdrawals into windows and builds
// the lookup structure. flows is retained (see Extend) and is expected
// time-sorted, as ParseMRTAll returns it. A withdrawal closes the open
// window of the identical rule (canonical wire encoding) from the same
// peer; re-announcing an open rule and withdrawing an uninstalled one are
// no-ops, mirroring the route server.
func NewIndex(flows []analysis.FlowUpdate, periodEnd time.Time) *Index {
	ix := &Index{openEnd: periodEnd.UnixNano() + 1}
	ix.Extend(flows)
	return ix
}

// Extend folds the updates that arrived since the last call into the
// index, in place. flows is retained and must not be modified afterwards.
// The stream is expected in time order (the live sequencer delivers it
// so), equal timestamps in processing order; if flows steps back in time
// — behind the index or within itself — the index is rebuilt once from
// the stably re-sorted stream, which is what NewIndex over a batch parse
// of the same archive builds. Either way it moves the index to a new
// epoch, which drops every Cursor's memo.
func (ix *Index) Extend(flows []analysis.FlowUpdate) {
	if ix.open == nil {
		ix.open = make(map[ruleKey]windowRef)
	}
	if len(flows) == 0 {
		return
	}
	if !ix.inOrder(flows) {
		sorted := make([]analysis.FlowUpdate, 0, len(ix.flows)+len(flows))
		sorted = append(append(sorted, ix.flows...), flows...)
		analysis.SortFlowUpdates(sorted)
		*ix = Index{openEnd: ix.openEnd, epoch: ix.epoch}
		ix.Extend(sorted)
		return
	}
	ix.epoch++
	if ix.flows == nil {
		ix.flows = flows[:len(flows):len(flows)]
	} else {
		ix.flows = append(ix.flows, flows...)
	}
	for i := range flows {
		ix.fold(&flows[i])
	}
}

// inOrder reports whether flows continues the folded stream without
// stepping back in time.
func (ix *Index) inOrder(flows []analysis.FlowUpdate) bool {
	var last time.Time
	if n := len(ix.flows); n > 0 {
		last = ix.flows[n-1].Time
	}
	for i := range flows {
		if flows[i].Time.Before(last) {
			return false
		}
		last = flows[i].Time
	}
	return true
}

// fold applies one update that continues the folded stream in time
// order, so a prefix's windows stay sorted by start.
func (ix *Index) fold(fu *analysis.FlowUpdate) {
	if fu.Rule == nil || !fu.Rule.HasDst {
		return
	}
	wire, err := bgp.EncodeFlowRule(fu.Rule)
	if err != nil {
		return
	}
	k := ruleKey{peer: fu.Peer, wire: string(wire)}
	ref, isOpen := ix.open[k]
	switch {
	case fu.Announce && !isOpen:
		p := fu.Rule.Dst
		lst, _ := ix.spans.Get(p)
		ix.open[k] = windowRef{prefix: p, i: len(lst)}
		ix.spans.Set(p, append(lst, window{start: fu.Time.UnixNano(), end: ix.openEnd}))
		ix.windows++
	case !fu.Announce && isOpen:
		lst, _ := ix.spans.Get(ref.prefix)
		lst[ref.i].end = fu.Time.UnixNano()
		delete(ix.open, k)
	}
}

// Windows returns the number of mitigation windows indexed.
func (ix *Index) Windows() int {
	if ix == nil {
		return 0
	}
	return ix.windows
}
