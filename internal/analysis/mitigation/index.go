package mitigation

import (
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// Window is one FlowSpec mitigation interval: a discard rule installed
// at Start and withdrawn at End (zero End = still installed at the end
// of the measurement period).
type Window struct {
	Prefix     bgp.Prefix
	Rule       *bgp.FlowRule
	Start, End time.Time
	Peer       uint32 // announcing member
}

// Index answers "was a FlowSpec mitigation active for this destination
// at this time" queries, the FlowSpec counterpart of events.Index. Build
// it from the time-sorted FlowSpec update stream; the online analyzer
// extends it in place as the stream grows, which is safe for the same
// reason extending the event index is: a record is only sealed once no
// in-flight update can still cover it.
type Index struct {
	periodEnd time.Time
	byPrefix  map[bgp.Prefix][]Window // sorted by Start
	lengths   []uint8                 // distinct prefix lengths, descending
	windows   int

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

// windowRef is where a rule's open window sits in byPrefix.
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
	ix := &Index{periodEnd: periodEnd}
	ix.Extend(flows)
	return ix
}

// Extend folds the updates that arrived since the last call into the
// index, in place. flows is retained and must not be modified afterwards.
// The stream is expected in time order (the live sequencer delivers it
// so), equal timestamps in processing order; if flows steps back in time
// — behind the index or within itself — the index is rebuilt once from
// the stably re-sorted stream, which is what NewIndex over a batch parse
// of the same archive builds.
func (ix *Index) Extend(flows []analysis.FlowUpdate) {
	if ix.byPrefix == nil {
		ix.byPrefix = make(map[bgp.Prefix][]Window)
		ix.open = make(map[ruleKey]windowRef)
	}
	if len(flows) == 0 {
		return
	}
	if !ix.inOrder(flows) {
		sorted := make([]analysis.FlowUpdate, 0, len(ix.flows)+len(flows))
		sorted = append(append(sorted, ix.flows...), flows...)
		analysis.SortFlowUpdates(sorted)
		*ix = Index{periodEnd: ix.periodEnd}
		ix.Extend(sorted)
		return
	}
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
// order, so a prefix's windows stay sorted by Start.
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
		lst := ix.byPrefix[p]
		if !slices.Contains(ix.lengths, p.Len) {
			i := sort.Search(len(ix.lengths), func(i int) bool { return ix.lengths[i] < p.Len })
			ix.lengths = slices.Insert(ix.lengths, i, p.Len)
		}
		ix.open[k] = windowRef{prefix: p, i: len(lst)}
		ix.byPrefix[p] = append(lst, Window{Prefix: p, Rule: fu.Rule, Start: fu.Time, Peer: fu.Peer})
		ix.windows++
	case !fu.Announce && isOpen:
		ix.byPrefix[ref.prefix][ref.i].End = fu.Time
		delete(ix.open, k)
	}
}

// Lookup returns the longest prefix with a FlowSpec window covering
// (ip, t). Windows are half-open [Start, End); an open-ended window
// covers through the period end.
func (ix *Index) Lookup(ip uint32, t time.Time) (bgp.Prefix, bool) {
	if ix == nil || len(ix.byPrefix) == 0 {
		return bgp.Prefix{}, false
	}
	for _, l := range ix.lengths {
		p := bgp.MakePrefix(ip, l)
		lst, ok := ix.byPrefix[p]
		if !ok {
			continue
		}
		for _, w := range lst {
			if t.Before(w.Start) {
				break // sorted by start
			}
			if w.End.IsZero() {
				if !t.After(ix.periodEnd) {
					return p, true
				}
				continue
			}
			if t.Before(w.End) {
				return p, true
			}
		}
	}
	return bgp.Prefix{}, false
}

// Windows returns the number of mitigation windows indexed.
func (ix *Index) Windows() int {
	if ix == nil {
		return 0
	}
	return ix.windows
}
