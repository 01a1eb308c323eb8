package events

import (
	"math"

	"repro/internal/bgp"
)

// Cursor is a single-address memo over an Index. The flow stream has
// strong address locality — the records of one injected traffic batch
// arrive back to back, all sharing endpoints — so resolving the
// per-length prefix-map probes once per run of identical addresses and
// replaying the cached candidate lists for the time-dependent queries
// removes nearly all map hashing from the streaming pass. Every query
// answers exactly like the Index method of its name, in unix nanoseconds
// where that takes a time.Time. A cached resolution goes stale when the
// index changes under it. Every Merger.Extend moves the index to a new
// epoch, and a cursor resolved under another one resolves again, so a
// view the online analyzer extends in place needs no rebinding.
//
// A cursor is single-goroutine state: a pipeline's pair (destination-
// and source-keyed) belongs to the goroutine that attributes, and the
// time-alignment operator keeps one of its own.
type Cursor struct {
	ix    *Index
	epoch uint64
	valid bool
	ip    uint32
	// cands holds the blackhole prefixes covering ip with their
	// start-sorted events, longest prefix first — the order the Index
	// methods scan in.
	cands []bgp.PrefixEntry[[]eventSpan]
	// epSpan, epLo, epHi and epWd memoise the episode activeAt found
	// last: in span epSpan, the one announced last at or before any
	// instant in [epLo, epHi) — its announce up to the next episode's —
	// withdrawn at epWd. A run of records inside one episode's stretch
	// asks nothing else. They are copies, so seek drops them whenever it
	// resolves again: an Extend closes and adds episodes in place.
	epSpan           *eventSpan
	epLo, epHi, epWd int64
}

// NewCursor returns a cursor over ix with an empty memo.
func NewCursor(ix *Index) *Cursor { return &Cursor{ix: ix} }

// seek resolves the candidate lists covering ip, reusing the memo when
// the previous query asked about the same address under the same epoch.
// Addresses change with every record on the source side (reflectors), and
// almost none of them is blackholed: the index's /16 filter answers those
// without a probe.
func (c *Cursor) seek(ip uint32) {
	if c.valid && c.ip == ip && c.epoch == c.ix.epoch {
		return
	}
	c.valid, c.ip, c.epoch = true, ip, c.ix.epoch
	c.cands = c.ix.spans.AppendCovering(c.cands[:0], ip)
	c.epSpan = nil
}

// EverBlackholed answers Index.EverBlackholed through the memo.
func (c *Cursor) EverBlackholed(ip uint32) (bgp.Prefix, bool) {
	c.seek(ip)
	if len(c.cands) == 0 {
		return bgp.Prefix{}, false
	}
	return c.cands[0].Prefix, true
}

// LookupNs answers Index.Lookup through the memo, for an instant in unix
// nanoseconds: the longest prefix with an active episode wins; otherwise
// the longest with a covering merged window.
func (c *Cursor) LookupNs(ip uint32, tn int64) Match {
	c.seek(ip)
	var m Match
	for i := range c.cands {
		cand := &c.cands[i]
		for j := range cand.Value {
			sp := &cand.Value[j]
			if tn < sp.start {
				break // spans sorted by start; later events start later
			}
			if tn > sp.end {
				continue
			}
			if c.activeAt(sp, tn) {
				return Match{Event: sp.ev, Active: true, Prefix: cand.Prefix}
			}
			if m.Event == nil {
				m = Match{Event: sp.ev, Prefix: cand.Prefix}
			}
		}
	}
	return m
}

// activeAt reports whether one of sp's episodes covers tn. An event's
// episodes are disjoint and in time order — its stream announces again
// only after it withdrew — so only the last one announced at or before tn
// can: the memoised one while tn stays in its stretch, else the one a
// binary search finds.
func (c *Cursor) activeAt(sp *eventSpan, tn int64) bool {
	if c.epSpan != sp || tn < c.epLo || tn >= c.epHi {
		eps := sp.eps
		k := annAfter(eps, tn)
		if k == 0 {
			return false
		}
		c.epSpan, c.epLo, c.epWd, c.epHi = sp, eps[k-1].Ann, eps[k-1].Wd, math.MaxInt64
		if k < len(eps) {
			c.epHi = eps[k].Ann
		}
	}
	return tn < c.epWd
}

// annAfter returns the index of the first episode announced after tn.
func annAfter(eps []EpisodeSpan, tn int64) int {
	lo, hi := 0, len(eps)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if eps[h].Ann <= tn {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// Episodes appends the bounds of every episode, of every blackhole prefix
// covering ip, that overlaps [lo, hi] (unix nanoseconds, inclusive) —
// longest prefix first, events and episodes in start order. These are the
// integer bounds Lookup compares against, so a caller's arithmetic on
// them agrees with time.Time arithmetic on the episodes themselves.
func (c *Cursor) Episodes(dst []EpisodeSpan, ip uint32, lo, hi int64) []EpisodeSpan {
	c.seek(ip)
	for i := range c.cands {
		for j := range c.cands[i].Value {
			sp := &c.cands[i].Value[j]
			if sp.start > hi {
				break // spans sorted by start; later events start later
			}
			if sp.end < lo {
				continue
			}
			// An episode followed by one announced before lo was
			// withdrawn before lo, so the scan starts at the last one
			// announced before lo. Only announces are bisected: an open
			// last episode's withdraw, the period end, can fall before
			// earlier withdraws.
			eps := sp.eps
			for k := max(annAfter(eps, lo-1)-1, 0); k < len(eps) && eps[k].Ann <= hi; k++ {
				if eps[k].Wd >= lo {
					dst = append(dst, eps[k])
				}
			}
		}
	}
	return dst
}

// InterestingNs answers Index.Interesting through the memo, for an
// instant in unix nanoseconds: whether (ip, tn) falls inside any event's
// analysis range — the pre-window plus the merged event window —
// returning the matched (longest) prefix.
func (c *Cursor) InterestingNs(ip uint32, tn int64) (bgp.Prefix, bool) {
	c.seek(ip)
	pre := int64(PreWindow)
	for i := range c.cands {
		cand := &c.cands[i]
		for j := range cand.Value {
			sp := &cand.Value[j]
			if tn < sp.start-pre {
				break
			}
			if tn <= sp.end {
				return cand.Prefix, true
			}
		}
	}
	return bgp.Prefix{}, false
}
