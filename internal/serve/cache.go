package serve

import (
	"sync"
	"time"

	rtbh "repro"
	"repro/internal/obs"
)

// snapshotCache is the copy-on-snapshot TTL cache between the HTTP
// handlers and the online analyzer. A cached entry is one immutable
// *rtbh.Report, shared across any number of concurrent readers at no cost
// per request. That is safe because nothing reachable from a finished
// snapshot is ever written in place: the snapshot's pipeline clone shares
// its sub-aggregates with the analyzer's sealed state rather than copying
// them, and whichever side writes one afterwards copies it first
// (analysis.Cow; DESIGN.md, "Incremental analysis"), so the report stays
// what it was while sealing continues underneath it.
//
// Freshness is per query: a request carrying maxAge=d accepts any entry
// at most d old. Requests that find the entry stale take a new snapshot;
// concurrent stale readers coalesce onto one in-flight snapshot
// (single-flight), so a thundering herd never multiplies analyzer work.
// maxAge=0 opts out of coalescing entirely: the caller demands a
// snapshot taken after its request arrived.
type snapshotCache struct {
	clock   func() time.Time
	refresh func() (*rtbh.Report, error)

	mu       sync.Mutex
	rep      *rtbh.Report
	taken    time.Time
	err      error         // outcome of the last refresh, for waiters
	inflight chan struct{} // non-nil while a refresh is running

	hits, misses *obs.Counter
}

func newSnapshotCache(clock func() time.Time, refresh func() (*rtbh.Report, error)) *snapshotCache {
	return &snapshotCache{
		clock:   clock,
		refresh: refresh,
		hits:    &obs.Counter{},
		misses:  &obs.Counter{},
	}
}

// get returns a report no older than maxAge, plus the time it was taken.
func (c *snapshotCache) get(maxAge time.Duration) (*rtbh.Report, time.Time, error) {
	if maxAge <= 0 {
		// A strictly fresh snapshot, taken for this caller alone.
		c.misses.Add(1)
		rep, err := c.refresh()
		if err != nil {
			return nil, time.Time{}, err
		}
		taken := c.clock()
		c.mu.Lock()
		if taken.After(c.taken) {
			c.rep, c.taken = rep, taken
		}
		c.mu.Unlock()
		return rep, taken, nil
	}

	for {
		c.mu.Lock()
		if c.rep != nil && c.clock().Sub(c.taken) <= maxAge {
			rep, taken := c.rep, c.taken
			c.mu.Unlock()
			c.hits.Add(1)
			return rep, taken, nil
		}
		if wait := c.inflight; wait != nil {
			// Someone is already snapshotting; adopt their result. The
			// adopted entry may be up to one snapshot duration older than
			// a strict TTL would allow — bounded staleness in exchange
			// for never stacking snapshots (see DESIGN.md).
			c.mu.Unlock()
			<-wait
			c.mu.Lock()
			rep, taken, err := c.rep, c.taken, c.err
			c.mu.Unlock()
			if err != nil {
				return nil, time.Time{}, err
			}
			if rep != nil {
				c.hits.Add(1)
				return rep, taken, nil
			}
			continue
		}
		done := make(chan struct{})
		c.inflight = done
		c.mu.Unlock()

		c.misses.Add(1)
		rep, err := c.refresh()
		taken := c.clock()

		c.mu.Lock()
		if err == nil {
			c.rep, c.taken = rep, taken
		}
		c.err = err
		c.inflight = nil
		c.mu.Unlock()
		close(done)
		if err != nil {
			return nil, time.Time{}, err
		}
		return rep, taken, nil
	}
}
