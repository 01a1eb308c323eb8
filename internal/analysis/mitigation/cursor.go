package mitigation

import "repro/internal/bgp"

// Cursor is a single-address memo over an Index, the FlowSpec counterpart
// of events.Cursor: the records of one injected traffic batch arrive back
// to back toward one destination, so the per-length prefix probes resolve
// once per run of records with the same destination, and the /16 filter
// answers the rest without a probe. Lookup answers exactly like the linear
// scan of every window of every covering prefix.
//
// A resolution goes stale when the index changes under it. Every
// Index.Extend moves the index to a new epoch, and a cursor resolved
// under another one resolves again, so a view the online analyzer
// extends in place needs no rebinding. A cursor is single-goroutine
// state, owned by the goroutine that attributes.
type Cursor struct {
	ix    *Index
	epoch uint64
	valid bool
	ip    uint32
	// cands holds the FlowSpec prefixes covering ip with their
	// start-sorted windows, longest prefix first.
	cands []bgp.PrefixEntry[[]window]
}

// NewCursor returns a cursor over ix (nil: no windows) with an empty memo.
func NewCursor(ix *Index) *Cursor { return &Cursor{ix: ix} }

// Lookup returns the longest prefix with a FlowSpec window covering ip at
// tn (unix nanoseconds). Windows are half-open [start, end); one still
// open covers through the period end.
func (c *Cursor) Lookup(ip uint32, tn int64) (bgp.Prefix, bool) {
	if c.ix == nil {
		return bgp.Prefix{}, false
	}
	if !c.valid || c.ip != ip || c.epoch != c.ix.epoch {
		c.seek(ip)
	}
	for i := range c.cands {
		for _, w := range c.cands[i].Value {
			if tn < w.start {
				break // sorted by start
			}
			if tn < w.end {
				return c.cands[i].Prefix, true
			}
		}
	}
	return bgp.Prefix{}, false
}

// seek resolves the candidate lists covering ip under the index's current
// epoch.
func (c *Cursor) seek(ip uint32) {
	c.valid, c.ip, c.epoch = true, ip, c.ix.epoch
	c.cands = c.ix.spans.AppendCovering(c.cands[:0], ip)
}
