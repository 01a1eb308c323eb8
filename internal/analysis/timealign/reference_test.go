package timealign

import (
	"math"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// timeReference is the reference model for AddDropped: the offset
// intervals computed with time.Time arithmetic over the events' own
// episodes (After/Before/Sub against every event of every covering
// prefix), as the aggregator did before it read the cursor's nanosecond
// bounds.
type timeReference struct {
	index        *events.Index
	starts, ends []float64
	total        int64
}

func (a *timeReference) addDropped(dstIP uint32, t time.Time) {
	a.total++
	var scratch []span
	for _, l := range a.index.Lengths() {
		scratch = a.collect(scratch, a.index.EventsFor(bgp.MakePrefix(dstIP, l)), t)
	}
	if len(scratch) == 0 {
		return
	}
	for i := 1; i < len(scratch); i++ {
		for j := i; j > 0 && scratch[j].lo < scratch[j-1].lo; j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	cur := scratch[0]
	for _, s := range scratch[1:] {
		if s.lo <= cur.hi {
			if s.hi > cur.hi {
				cur.hi = s.hi
			}
			continue
		}
		a.starts = append(a.starts, cur.lo)
		a.ends = append(a.ends, cur.hi)
		cur = s
	}
	a.starts = append(a.starts, cur.lo)
	a.ends = append(a.ends, cur.hi)
}

func (a *timeReference) collect(scratch []span, evs []*events.Event, t time.Time) []span {
	lo := t.Add(-SearchRange)
	hi := t.Add(SearchRange)
	for _, e := range evs {
		if e.Start().After(hi) {
			break
		}
		if e.End(a.index.PeriodEnd()).Before(lo) {
			continue
		}
		for _, ep := range e.Episodes {
			wd := ep.Withdraw
			if wd.IsZero() {
				wd = a.index.PeriodEnd()
			}
			if ep.Announce.After(hi) || wd.Before(lo) {
				continue
			}
			dLo := ep.Announce.Sub(t).Seconds()
			dHi := wd.Sub(t).Seconds()
			if dLo < -SearchRange.Seconds() {
				dLo = -SearchRange.Seconds()
			}
			if dHi > SearchRange.Seconds() {
				dHi = SearchRange.Seconds() + 1
			}
			if dHi <= dLo {
				continue
			}
			scratch = append(scratch, span{lo: dLo, hi: dHi})
		}
	}
	return scratch
}

// TestAddDroppedMatchesTimeReference demands the recorded offset
// intervals bit for bit: nested prefixes (a /32 inside a covering /24
// inside a /16), several peers so that episodes overlap, episodes left
// open to the period end, and records placed exactly 2 s before an
// announcement and after a withdrawal — the search range's edges — as
// well as within nanoseconds of them.
func TestAddDroppedMatchesTimeReference(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("203.0.113.5/32"),
		bgp.MustParsePrefix("203.0.113.0/24"),
		bgp.MustParsePrefix("203.0.0.0/16"),
		bgp.MustParsePrefix("198.51.100.7/32"),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		r := stats.NewRNG(seed)
		var us []analysis.ControlUpdate
		at := t0
		for i := 0; i < 120; i++ {
			// Sub-second steps too: withdraw/re-announce gaps inside the
			// search range put two episodes into one record's window.
			at = at.Add(time.Duration(r.Intn(3_000_000)) * time.Microsecond * time.Duration(1+r.Intn(400)))
			u := analysis.ControlUpdate{
				Time:     at,
				Peer:     uint32(100 * (1 + r.Intn(3))),
				Prefix:   prefixes[r.Intn(len(prefixes))],
				Announce: r.Bool(0.6), // announcements left over stay open-ended
			}
			if u.Announce {
				u.Communities = bgp.Communities{bgp.Blackhole}
			}
			us = append(us, u)
		}
		evs := events.Merge(us, events.DefaultDelta, pEnd)
		ix := events.NewIndex(evs, pEnd)
		got, want := New(ix), &timeReference{index: ix}

		var probes []time.Time
		open := 0
		for _, e := range evs {
			for _, ep := range e.Episodes {
				wd := ep.Withdraw
				if wd.IsZero() {
					wd, open = pEnd, open+1
				}
				for _, edge := range []time.Time{ep.Announce, wd} {
					for _, d := range []time.Duration{-SearchRange, SearchRange, 0} {
						probes = append(probes, edge.Add(d), edge.Add(d-1), edge.Add(d+1))
					}
					probes = append(probes, edge.Add(time.Duration(r.Intn(5000)-2500)*time.Millisecond))
				}
			}
		}
		if open == 0 {
			t.Fatalf("seed %d: no open-ended episode in the fixture", seed)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, t0.Add(time.Duration(r.Int63n(int64(at.Sub(t0)+time.Hour)))))
		}
		ips := []uint32{prefixes[0].Addr, prefixes[1].Addr + 9, prefixes[2].Addr + 0x0101, prefixes[3].Addr, 0x01020304}
		for _, at := range probes {
			ip := ips[r.Intn(len(ips))]
			got.AddDropped(ip, at)
			want.addDropped(ip, at)
		}

		if got.total != want.total || len(got.starts) != len(want.starts) || len(got.ends) != len(want.ends) {
			t.Fatalf("seed %d: %d records, %d/%d bounds; reference has %d records, %d/%d bounds",
				seed, got.total, len(got.starts), len(got.ends), want.total, len(want.starts), len(want.ends))
		}
		if len(got.starts) < len(probes)/10 {
			t.Fatalf("seed %d: only %d intervals from %d probes; fixture too thin", seed, len(got.starts), len(probes))
		}
		for i := range got.starts {
			if math.Float64bits(got.starts[i]) != math.Float64bits(want.starts[i]) ||
				math.Float64bits(got.ends[i]) != math.Float64bits(want.ends[i]) {
				t.Fatalf("seed %d: interval %d = [%v, %v), reference [%v, %v)",
					seed, i, got.starts[i], got.ends[i], want.starts[i], want.ends[i])
			}
		}
	}
}
