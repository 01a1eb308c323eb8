package hosts

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/cowtest"
)

// deepSnapshot is the reference model for Snapshot: the copy of every
// host, day and key array that Snapshot made before hosts became shared
// between an aggregator and its snapshots. (A fresh set merged with a set
// is that set: the keys in their order, then the saturated tail.)
func deepSnapshot(a *Aggregator) *Aggregator {
	s := New()
	for ip, h := range a.hosts {
		ch := &hostAgg{owner: s.cow.Stamp()}
		for _, da := range h.days {
			da.inTop = da.cloneTop()
			ch.days = append(ch.days, da)
		}
		for f := range h.feat {
			ch.feat[f] = *analysis.NewBoundedSet(featCap)
			ch.feat[f].Merge(&h.feat[f])
		}
		s.hosts[ip] = ch
	}
	return s
}

// TestSnapshotMatchesDeepCopy drives the aggregator and the deep-copy
// reference through the same random Add / Snapshot / Merge /
// UnmarshalBinary / Filter sequences (cowtest.Run). Eight hosts over six
// days, one host taking half of the traffic from a 4,096-port range, so
// that its 512-key feature sets saturate on the long-lived stores and stay
// exact on fresh branches, and the 32-key daily top counters fill up.
func TestSnapshotMatchesDeepCopy(t *testing.T) {
	const base = 0x0a000000
	c := cowtest.Case[*Aggregator]{
		New:  New,
		Deep: deepSnapshot,
		Add: func(a *Aggregator, x uint64) {
			ip := uint32(base)
			if x&1 == 0 {
				ip += uint32(x >> 1 % 8)
			}
			day := int32(x >> 8 % 6)
			wide, narrow := uint16(x>>16%4096), uint16(x>>32%64)
			if x>>4&1 == 0 {
				a.AddIncoming(ip, day, wide, narrow, 6, int64(1+x>>40%3))
			} else {
				a.AddOutgoing(ip, day, narrow, wide, 17, 1)
			}
		},
		Rewrites: []func(*Aggregator, uint64){
			func(a *Aggregator, x uint64) {
				gone := uint32(base + x%8)
				a.Filter(func(ip uint32) bool { return ip != gone })
			},
		},
		Copies: (*Aggregator).CowCopies,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cowtest.Run(t, seed, 250, c) })
	}
}
