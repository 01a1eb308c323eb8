package timealign

import (
	"math"
	"sort"
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
	for l := 32; l >= 0; l-- {
		scratch = a.collect(scratch, a.index.EventsFor(bgp.MakePrefix(dstIP, uint8(l))), t)
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
// well as within nanoseconds of them. Each stream is indexed twice: with
// the period end after it, and with one inside it, where an open last
// episode resolves to before earlier withdraws of its own event.
func TestAddDroppedMatchesTimeReference(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("203.0.113.5/32"),
		bgp.MustParsePrefix("203.0.113.0/24"),
		bgp.MustParsePrefix("203.0.0.0/16"),
		bgp.MustParsePrefix("198.51.100.7/32"),
	}
	early := 0 // open last episodes resolved to before an earlier withdraw
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
		for _, end := range []time.Time{pEnd, us[len(us)/2].Time} {
			evs := events.Merge(us, events.DefaultDelta, end)
			ix := events.NewIndex(evs, end)
			got, want := New(ix), &timeReference{index: ix}

			var probes []time.Time
			open := 0
			for _, e := range evs {
				for k, ep := range e.Episodes {
					wd := ep.Withdraw
					if wd.IsZero() {
						wd, open = end, open+1
						if k > 0 && end.Before(e.Episodes[k-1].Withdraw) {
							early++
						}
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
				t.Fatalf("seed %d, end %v: no open-ended episode in the fixture", seed, end)
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
				t.Fatalf("seed %d, end %v: %d records, %d/%d bounds; reference has %d records, %d/%d bounds",
					seed, end, got.total, len(got.starts), len(got.ends), want.total, len(want.starts), len(want.ends))
			}
			if len(got.starts) < len(probes)/10 {
				t.Fatalf("seed %d, end %v: only %d intervals from %d probes; fixture too thin", seed, end, len(got.starts), len(probes))
			}
			for i := range got.starts {
				if math.Float64bits(got.starts[i]) != math.Float64bits(want.starts[i]) ||
					math.Float64bits(got.ends[i]) != math.Float64bits(want.ends[i]) {
					t.Fatalf("seed %d, end %v: interval %d = [%v, %v), reference [%v, %v)",
						seed, end, i, got.starts[i], got.ends[i], want.starts[i], want.ends[i])
				}
			}
		}
	}
	if early == 0 {
		t.Fatal("no open last episode resolves to before an earlier withdraw: the period-end case is vacuous")
	}
}

// sortedEstimate is the reference model for Estimate: both endpoint
// arrays copied and sorted, then two binary searches per grid point, as
// Estimate ran before it binned the endpoints.
func sortedEstimate(a *Aggregator, step time.Duration) *Result {
	res := &Result{Dropped: a.total}
	if a.total == 0 || step <= 0 {
		return res
	}
	starts := append([]float64(nil), a.starts...)
	ends := append([]float64(nil), a.ends...)
	sort.Float64s(starts)
	sort.Float64s(ends)
	for off := -SearchRange; off <= SearchRange; off += step {
		d := off.Seconds()
		count := sort.SearchFloat64s(starts, d+1e-12) - sort.SearchFloat64s(ends, d+1e-12)
		p := Point{Offset: off, Overlap: float64(count) / float64(a.total)}
		res.Curve = append(res.Curve, p)
		if p.Overlap > res.BestOverlap {
			res.BestOverlap = p.Overlap
			res.BestOffset = off
		}
	}
	return res
}

// TestEstimateMatchesSortedReference demands the sort-based curve bit for
// bit. The endpoints sit exactly on grid offsets, on the guarded grid
// values (offset + 1e-12), 1e-12 and one ulp to either side of both, at
// the clipped bounds -2 and 3, and at random; the steps include odd ones
// that do not divide the range, a step larger than the range, and a tiny
// one.
func TestEstimateMatchesSortedReference(t *testing.T) {
	steps := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 7 * time.Millisecond,
		333 * time.Microsecond, 1300 * time.Millisecond, 3 * time.Second, 5 * time.Second, 10 * time.Microsecond, 3 * time.Microsecond}
	for _, step := range steps {
		for seed := uint64(1); seed <= 4; seed++ {
			r := stats.NewRNG(seed)
			edge := func() float64 {
				k := r.Int63n(int64(2*SearchRange/step) + 1)
				x := (-SearchRange + time.Duration(k)*step).Seconds()
				switch r.Intn(8) {
				case 0:
					return x
				case 1:
					return x + 1e-12
				case 2:
					return x + 2e-12
				case 3:
					return x - 1e-12
				case 4:
					return math.Nextafter(x+1e-12, math.Inf(-1))
				case 5:
					return math.Nextafter(x+1e-12, math.Inf(1))
				case 6:
					return math.Nextafter(x, math.Inf(-1))
				}
				return math.Nextafter(x, math.Inf(1))
			}
			value := func() float64 {
				switch r.Intn(6) {
				case 0:
					return -SearchRange.Seconds()
				case 1:
					return SearchRange.Seconds() + 1
				case 2:
					return (r.Float64()*2 - 1) * 2.5
				}
				return edge()
			}
			a := &Aggregator{}
			n := 1 + r.Intn(3000)
			for i := 0; i < n; i++ {
				lo, hi := value(), value()
				if hi < lo {
					lo, hi = hi, lo
				}
				a.starts, a.ends = append(a.starts, lo), append(a.ends, hi)
			}
			a.total = int64(n + r.Intn(50)) // records whose intervals missed the range
			got, want := a.Estimate(step), sortedEstimate(a, step)
			if len(got.Curve) != len(want.Curve) || got.Dropped != want.Dropped ||
				got.BestOffset != want.BestOffset || math.Float64bits(got.BestOverlap) != math.Float64bits(want.BestOverlap) {
				t.Fatalf("step %v seed %d: %d points, best %v at %v; reference %d points, best %v at %v",
					step, seed, len(got.Curve), got.BestOverlap, got.BestOffset, len(want.Curve), want.BestOverlap, want.BestOffset)
			}
			for i := range want.Curve {
				if got.Curve[i].Offset != want.Curve[i].Offset ||
					math.Float64bits(got.Curve[i].Overlap) != math.Float64bits(want.Curve[i].Overlap) {
					t.Fatalf("step %v seed %d: point %d = %+v, reference %+v", step, seed, i, got.Curve[i], want.Curve[i])
				}
			}
		}
	}
}
