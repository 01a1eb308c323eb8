package serve

import (
	"slices"
	"sync"
	"time"

	rtbh "repro"
)

// histEntry is one retained point of the rolling time series: a full
// report snapshot and the instant it was taken.
type histEntry struct {
	at  time.Time
	rep *rtbh.Report
}

// historyRing retains the most recent depth snapshots in capture order.
// With the default 5-minute cadence and a depth of 288 it holds a day of
// history. Entries are immutable once appended; lookups serve clients'
// ?at= and ?since= queries.
type historyRing struct {
	mu      sync.Mutex
	depth   int
	entries []histEntry // ascending capture time
}

func newHistoryRing(depth int) *historyRing {
	return &historyRing{depth: depth}
}

// add appends a snapshot, evicting the oldest entry past capacity.
// Out-of-order captures (a clock that did not advance) are rejected so
// the series stays strictly increasing.
func (r *historyRing) add(at time.Time, rep *rtbh.Report) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.entries); n > 0 && !at.After(r.entries[n-1].at) {
		return false
	}
	r.entries = append(r.entries, histEntry{at: at, rep: rep})
	if len(r.entries) > r.depth {
		r.entries = append(r.entries[:0], r.entries[len(r.entries)-r.depth:]...)
	}
	return true
}

// len returns the number of retained entries.
func (r *historyRing) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// bounds returns the oldest and newest capture times (zero when empty).
func (r *historyRing) bounds() (oldest, newest time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == 0 {
		return time.Time{}, time.Time{}
	}
	return r.entries[0].at, r.entries[len(r.entries)-1].at
}

// at returns the newest entry captured at or before t, which is how
// clients read history ("the state as of t"). ok is false when t
// precedes the retained window.
func (r *historyRing) at(t time.Time) (histEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.entries) - 1; i >= 0; i-- {
		if !r.entries[i].at.After(t) {
			return r.entries[i], true
		}
	}
	return histEntry{}, false
}

// all returns every retained entry, oldest first.
func (r *historyRing) all() []histEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.entries)
}
