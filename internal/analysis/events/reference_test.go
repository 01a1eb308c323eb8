package events

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// mergePerDeltaSweep is the reference model for Sweep: the definition of
// Fig 10 taken literally, one full Merge per threshold, as this package
// computed it before the sweep became one pass over the announce gaps.
func mergePerDeltaSweep(updates []analysis.ControlUpdate, deltas []time.Duration, periodEnd time.Time) (points []SweepPoint, lowerBound float64) {
	ann := 0
	streams := make(map[streamKey]bool)
	for i := range updates {
		if updates[i].Announce {
			ann++
			streams[streamKey{prefix: updates[i].Prefix, peer: updates[i].Peer}] = true
		}
	}
	if ann == 0 {
		return nil, 0
	}
	for _, d := range deltas {
		evs := Merge(updates, d, periodEnd)
		points = append(points, SweepPoint{
			Delta:    d,
			Events:   len(evs),
			Fraction: float64(len(evs)) / float64(ann),
		})
	}
	return points, float64(len(streams)) / float64(ann)
}

func TestSweepMatchesMergePerDelta(t *testing.T) {
	// Every rule of Merge in one hand-written stream: an orphan withdraw,
	// a re-announcement of an active route, a repeated withdraw, a second
	// stream on the same prefix, and gaps of exactly 10 and 3 minutes.
	crafted := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, false), // orphan
		upd(t0.Add(1*time.Minute), 100, prefixA, true),
		upd(t0.Add(2*time.Minute), 100, prefixA, true), // already active
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(6*time.Minute), 100, prefixA, false), // already withdrawn: the gap runs from minute 5
		upd(t0.Add(7*time.Minute), 200, prefixA, true),
		upd(t0.Add(15*time.Minute), 100, prefixA, true), // gap == 10 min exactly
		upd(t0.Add(16*time.Minute), 100, prefixA, false),
		upd(t0.Add(19*time.Minute), 100, prefixA, true),  // gap == 3 min exactly
		upd(t0.Add(30*time.Minute), 200, prefixB, false), // orphan on an unseen stream
	}
	onlyWithdraws := []analysis.ControlUpdate{upd(t0, 100, prefixA, false), upd(t0.Add(time.Hour), 200, prefixB, false)}

	streams := map[string][]analysis.ControlUpdate{
		"nil": nil, "crafted": crafted, "zero announcements": onlyWithdraws,
		"one announcement": crafted[1:2],
	}
	for seed := uint64(1); seed <= 20; seed++ {
		streams[fmt.Sprintf("random %d", seed)] = randomStream(seed, int(seed*seed)) // 1..400 updates
	}

	split := 0
	for name, us := range streams {
		// The thresholds that matter are the stream's own gaps: read them off
		// an unbounded merge (one event per stream, every cycle an episode)
		// and probe each one exactly and a nanosecond to either side.
		deltas := []time.Duration{0, time.Nanosecond, DefaultDelta, 60 * time.Minute, math.MaxInt64}
		for _, e := range Merge(us, math.MaxInt64, pEnd) {
			for i := 1; i < len(e.Episodes); i++ {
				gap := e.Episodes[i].Announce.Sub(e.Episodes[i-1].Withdraw)
				deltas = append(deltas, gap, gap-1, gap+1, gap) // duplicates on purpose
			}
		}
		r := stats.NewRNG(uint64(len(us)))
		r.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })

		got, gotLower := Sweep(us, deltas, pEnd)
		want, wantLower := mergePerDeltaSweep(us, deltas, pEnd)
		if !reflect.DeepEqual(got, want) || math.Float64bits(gotLower) != math.Float64bits(wantLower) {
			t.Fatalf("%s: sweep differs:\none pass  %v %v\nper delta %v %v", name, got, gotLower, want, wantLower)
		}
		for i := range want {
			if math.Float64bits(got[i].Fraction) != math.Float64bits(want[i].Fraction) {
				t.Fatalf("%s: point %d fraction bits differ: %v vs %v", name, i, got[i], want[i])
			}
			if want[i].Events != want[0].Events {
				split++
			}
		}
	}
	if split == 0 {
		t.Fatal("no threshold changed any event count: the streams exercise nothing")
	}
}

// prefilterStream draws announce/withdraw updates over the given prefixes.
func prefilterStream(r *stats.RNG, prefixes []bgp.Prefix, n int) []analysis.ControlUpdate {
	t := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	var out []analysis.ControlUpdate
	for i := 0; i < n; i++ {
		t = t.Add(time.Duration(10+r.Intn(4000)) * time.Second)
		u := analysis.ControlUpdate{
			Time:     t,
			Peer:     uint32(100 * (1 + r.Intn(3))),
			Prefix:   prefixes[r.Intn(len(prefixes))],
			Announce: r.Bool(0.55),
		}
		if u.Announce {
			u.Communities = bgp.Communities{bgp.Blackhole}
		}
		out = append(out, u)
	}
	return out
}

// edgeProbes lists the addresses where a /16 filter can go wrong: both
// ends of every prefix and of its /16 (or, for a shorter prefix, of its
// whole range), the addresses just outside them, and random ones.
func edgeProbes(r *stats.RNG, prefixes []bgp.Prefix) []uint32 {
	ips := []uint32{0, 0xffff, 0x10000, 0xffffffff, 0xffff0000, 0xfffeffff}
	for _, p := range prefixes {
		size := uint32(1)<<(32-p.Len) - 1 // /0 wraps to all-ones, as wanted
		first, last := p.Addr, p.Addr+size
		lo16, hi16 := first&^0xffff, last|0xffff
		ips = append(ips, first, last, first-1, last+1, lo16, hi16, lo16-1, hi16+1,
			first+uint32(r.Uint64())&size)
	}
	for i := 0; i < 64; i++ {
		ips = append(ips, uint32(r.Uint64()))
	}
	return ips
}

// everBlackholedUnfiltered is the reference model for EverBlackholed, on
// the Index and through the Cursor: one map probe per prefix length,
// all 33 of them, longest first, with no length set and no /16 filter.
func everBlackholedUnfiltered(ix *Index, ip uint32) (bgp.Prefix, bool) {
	for l := 32; l >= 0; l-- {
		p := bgp.MakePrefix(ip, uint8(l))
		if _, ok := ix.spans.Get(p); ok {
			return p, true
		}
	}
	return bgp.Prefix{}, false
}

// TestCursorMatchesIndexWithPrefilter pins the Cursor — the /16 cover
// filter in front of its probes included — to the Index methods of the
// same name, which probe every prefix length unfiltered (EverBlackholed,
// filtered on the Index too, to the unfiltered model above): over blackholes
// from /32 down to /8, /12 and /0, on every filter edge, with the memo
// carried from probe to probe, and again while a Merger extends the same
// index in place under the same cursor, as the online analyzer's seal
// checks extend it — a step that goes back in time rebuilding it.
func TestCursorMatchesIndexWithPrefilter(t *testing.T) {
	end := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	base := time.Date(2018, 9, 28, 0, 0, 0, 0, time.UTC)
	pool := []bgp.Prefix{
		bgp.MustParsePrefix("203.0.113.5/32"),
		bgp.MustParsePrefix("203.0.113.0/24"),
		bgp.MustParsePrefix("203.0.0.0/16"),
		bgp.MustParsePrefix("198.51.100.0/22"),
		bgp.MustParsePrefix("198.51.255.255/32"),
		bgp.MustParsePrefix("198.52.0.0/32"),
		bgp.MustParsePrefix("172.16.0.0/12"),
		bgp.MustParsePrefix("10.0.0.0/8"),
		bgp.MustParsePrefix("255.255.255.255/32"),
		bgp.MustParsePrefix("0.0.0.0/32"),
	}
	everything := bgp.MustParsePrefix("0.0.0.0/0")

	agree := func(t *testing.T, cur *Cursor, ix *Index, ip uint32, at time.Time) bool {
		t.Helper()
		wantP, wantOK := everBlackholedUnfiltered(ix, ip)
		if gotP, gotOK := cur.EverBlackholed(ip); gotP != wantP || gotOK != wantOK {
			t.Fatalf("Cursor.EverBlackholed(%08x) = %v, %v; unfiltered probes say %v, %v", ip, gotP, gotOK, wantP, wantOK)
		}
		if gotP, gotOK := ix.EverBlackholed(ip); gotP != wantP || gotOK != wantOK {
			t.Fatalf("Index.EverBlackholed(%08x) = %v, %v; unfiltered probes say %v, %v", ip, gotP, gotOK, wantP, wantOK)
		}
		if got, want := cur.LookupNs(ip, at.UnixNano()), ix.Lookup(ip, at); got != want {
			t.Fatalf("Lookup(%08x, %v) = %+v; index says %+v", ip, at, got, want)
		}
		wantP, wantI := ix.Interesting(ip, at)
		if gotP, gotI := cur.InterestingNs(ip, at.UnixNano()); gotP != wantP || gotI != wantI {
			t.Fatalf("Interesting(%08x, %v) = %v, %v; index says %v, %v", ip, at, gotP, gotI, wantP, wantI)
		}
		return wantOK
	}
	check := func(t *testing.T, cur *Cursor, ix *Index, r *stats.RNG, ips []uint32) (hits int) {
		t.Helper()
		for probe := 0; probe < 4*len(ips); probe++ {
			at := base.Add(time.Duration(r.Intn(100*24*3600)) * time.Second)
			if agree(t, cur, ix, ips[r.Intn(len(ips))], at) {
				hits++
			}
		}
		return hits
	}

	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := stats.NewRNG(seed)
			// A random half of the pool, so that some /16s stay unmarked;
			// every third seed blackholes the whole address space as well.
			var prefixes []bgp.Prefix
			for _, p := range pool {
				if r.Bool(0.5) {
					prefixes = append(prefixes, p)
				}
			}
			if len(prefixes) == 0 {
				prefixes = pool[:1]
			}
			if seed%3 == 0 {
				prefixes = append(prefixes, everything)
			}
			ips := edgeProbes(r, append(pool[:len(pool):len(pool)], everything))

			updates := prefilterStream(r, prefixes, 150)
			ix := NewIndex(Merge(updates, DefaultDelta, end), end)
			cur := NewCursor(ix)
			hits := check(t, cur, ix, r, ips)
			if hits == 0 {
				t.Fatal("no probe was ever blackholed; the comparison would be vacuous")
			}
			if seed%3 != 0 && hits == 4*len(ips) {
				t.Fatal("every probe was blackholed; the filter never said no")
			}

			// The control stream grows by prefixes the first view may never
			// have seen: three steps past its end, then one back inside it.
			// Before each step the cursor resolves an address the step
			// announces, and asks about it again right after, memo and all.
			m := NewMerger(DefaultDelta, end)
			ix = m.Index()
			m.Extend(updates)
			cur = NewCursor(ix)
			later := prefilterStream(r, pool, 150)
			shift := updates[len(updates)-1].Time.Sub(later[0].Time) + time.Second
			for i := range later {
				later[i].Time = later[i].Time.Add(shift)
			}
			at := later[0].Time.Add(time.Minute)
			for _, step := range [][]analysis.ControlUpdate{later[:50], later[50:100], later[100:], prefilterStream(r, pool, 50)} {
				i := slices.IndexFunc(step, func(u analysis.ControlUpdate) bool { return u.Announce })
				ip := step[i].Prefix.Addr
				agree(t, cur, ix, ip, at)
				m.Extend(step)
				if m.Index() != ix {
					t.Fatal("Extend replaced the index")
				}
				if !agree(t, cur, ix, ip, at) {
					t.Fatalf("%v is not blackholed after a step announcing it", step[i].Prefix)
				}
				check(t, cur, ix, r, ips)
			}
		})
	}
}

// lookupLinear is the reference model for Cursor.LookupNs: the cursor's
// scan before it searched an event's episodes by bisection, visiting
// every episode of every event whose window covers tn, with no memo, no
// length set and no /16 filter: one map probe for each of the 33 lengths.
func lookupLinear(ix *Index, ip uint32, tn int64) Match {
	var m Match
	for l := 32; l >= 0; l-- {
		p := bgp.MakePrefix(ip, uint8(l))
		sps, _ := ix.spans.Get(p)
		for _, sp := range sps {
			if tn < sp.start {
				break
			}
			if tn > sp.end {
				continue
			}
			for _, ep := range sp.eps {
				if tn >= ep.Ann && tn < ep.Wd {
					return Match{Event: sp.ev, Active: true, Prefix: p}
				}
			}
			if m.Event == nil {
				m = Match{Event: sp.ev, Prefix: p}
			}
		}
	}
	return m
}

// episodesLinear is the reference model for Cursor.Episodes: every
// episode of every event whose window meets [lo, hi], tested one by one,
// with no memo, no bisection and one map probe for each of the 33
// lengths.
func episodesLinear(ix *Index, ip uint32, lo, hi int64) []EpisodeSpan {
	var out []EpisodeSpan
	for l := 32; l >= 0; l-- {
		sps, _ := ix.spans.Get(bgp.MakePrefix(ip, uint8(l)))
		for _, sp := range sps {
			if sp.start > hi {
				break
			}
			if sp.end < lo {
				continue
			}
			for _, ep := range sp.eps {
				if ep.Ann <= hi && ep.Wd >= lo {
					out = append(out, ep)
				}
			}
		}
	}
	return out
}

// TestCursorLookupMatchesLinearEpisodes holds the episode bisection and
// its memo to the linear scan, and both to Index.Lookup's time.Time
// arithmetic, on random events of disjoint, time-ordered episodes: many
// of them per event, zero-length ones, events that overlap on a prefix,
// and open last episodes resolved to a period end that some episodes
// start after. Every episode bound is probed, and a nanosecond either
// side of it: first in time order, then shuffled, so that the memo moves
// back and forth between the spans of overlapping events. Episodes is
// held to its linear model on windows around the same bounds. Last, one
// cursor is carried across a view extended in place and rebuilt out of
// order, settling before each step on an episode the step changes.
func TestCursorLookupMatchesLinearEpisodes(t *testing.T) {
	base := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("203.0.113.5/32"),
		bgp.MustParsePrefix("203.0.113.0/24"),
		bgp.MustParsePrefix("198.51.100.0/22"),
	}
	ips := []uint32{prefixes[0].Addr, prefixes[1].Addr + 9, prefixes[2].Addr + 700, 0x01020304}
	var queries, active, zeroLen, switches, episodes int
	lookup := func(t *testing.T, cur *Cursor, ix *Index, ip uint32, at time.Time) Match {
		t.Helper()
		got, lin, want := cur.LookupNs(ip, at.UnixNano()), lookupLinear(ix, ip, at.UnixNano()), ix.Lookup(ip, at)
		if got != want || lin != want {
			t.Fatalf("Lookup(%08x, %v) = %+v bisecting, %+v linear; index says %+v", ip, at, got, lin, want)
		}
		queries++
		if want.Active {
			active++
		}
		return got
	}
	for seed := uint64(1); seed <= 40; seed++ {
		r := stats.NewRNG(seed)
		var evs []*Event
		var bounds []time.Time
		for n := 3 + r.Intn(8); len(evs) < n; {
			e := &Event{Prefix: prefixes[r.Intn(len(prefixes))], Peer: uint32(100 + r.Intn(3))}
			at := base.Add(time.Duration(r.Intn(600)) * time.Minute)
			for k := 1 + r.Intn(12); k > 0; k-- {
				at = at.Add(time.Duration(r.Intn(3)) * time.Minute) // equal to the last withdraw now and then
				ep := Episode{Announce: at, Withdraw: at.Add(time.Duration(r.Intn(4)) * 5 * time.Minute)}
				if ep.Withdraw.Equal(ep.Announce) {
					zeroLen++
				}
				at = ep.Withdraw
				if k == 1 && r.Bool(0.4) {
					ep.Withdraw = time.Time{} // still announced at the period end
				}
				e.Episodes = append(e.Episodes, ep)
				bounds = append(bounds, ep.Announce, at)
			}
			evs = append(evs, e)
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start().Before(evs[j].Start()) })
		for i, e := range evs {
			e.ID = i
		}
		// The period ends inside the generated range: later episodes start
		// after it, and an open one there resolves to before its announce.
		end := base.Add(time.Duration(300+r.Intn(600)) * time.Minute)
		bounds = append(bounds, end)
		ix := NewIndex(evs, end)
		cur := NewCursor(ix)
		var probes []time.Time
		for _, b := range bounds {
			for _, d := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond} {
				probes = append(probes, b.Add(d))
			}
		}
		for _, ip := range ips {
			for _, at := range probes {
				lookup(t, cur, ix, ip, at)
			}
		}
		for _, ip := range ips {
			r.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
			var last *Event
			for _, at := range probes {
				if m := lookup(t, cur, ix, ip, at); m.Active {
					if last != nil && m.Event != last {
						switches++
					}
					last = m.Event
				}
			}
			for _, at := range probes[:len(probes)/4] {
				for _, w := range []time.Duration{0, time.Minute, 7 * time.Minute, time.Hour} {
					lo, hi := at.Add(-w).UnixNano(), at.Add(w).UnixNano()
					got, want := cur.Episodes(nil, ip, lo, hi), episodesLinear(ix, ip, lo, hi)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d: Episodes(%08x, %v ± %v) = %v; linear %v", seed, ip, at, w, got, want)
					}
					episodes += len(got)
				}
			}
		}
	}
	if active == 0 || active == queries || zeroLen == 0 || switches == 0 || episodes == 0 {
		t.Fatalf("%d of %d queries active, %d zero-length episodes, %d active-event switches, %d episodes listed: the comparison is vacuous",
			active, queries, zeroLen, switches, episodes)
	}

	end := base.Add(48 * time.Hour)
	ip := prefixes[0].Addr
	at := func(min int) time.Time { return base.Add(time.Duration(min) * time.Minute) }
	upd := func(min int, peer uint32, announce bool) analysis.ControlUpdate {
		u := analysis.ControlUpdate{Time: at(min), Peer: peer, Prefix: prefixes[0], Announce: announce}
		if announce {
			u.Communities = bgp.Communities{bgp.Blackhole}
		}
		return u
	}
	m := NewMerger(DefaultDelta, end)
	ix := m.Index()
	cur := NewCursor(ix)
	for _, step := range []struct {
		us            []analysis.ControlUpdate
		before, after []int // minutes asked about before and after Extend
	}{
		{[]analysis.ControlUpdate{upd(0, 100, true)}, nil, []int{5}},
		// Closes the open episode the cursor sits in and opens another
		// after a gap: the memo's copy of the open bounds says 12 is active.
		{[]analysis.ControlUpdate{upd(10, 100, false), upd(15, 100, true), upd(20, 100, false)}, []int{5}, []int{12, 17, 25, 5}},
		// Steps back in time: the view is rebuilt in place.
		{[]analysis.ControlUpdate{upd(1, 101, true), upd(2, 101, false)}, []int{17}, []int{17, 1, 12, 25}},
		{[]analysis.ControlUpdate{upd(30, 101, true)}, []int{25}, []int{25, 31, 17}},
	} {
		for _, min := range step.before {
			lookup(t, cur, ix, ip, at(min))
		}
		epoch := ix.epoch
		m.Extend(step.us)
		if m.Index() != ix || ix.epoch == epoch {
			t.Fatalf("Extend(%v): index replaced or epoch kept", step.us)
		}
		for _, min := range step.after {
			lookup(t, cur, ix, ip, at(min))
			lo, hi := at(min-3).UnixNano(), at(min+3).UnixNano()
			if got, want := cur.Episodes(nil, ip, lo, hi), episodesLinear(ix, ip, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("after Extend(%v): Episodes(%08x, %d min ± 3) = %v; linear %v", step.us, ip, min, got, want)
			}
		}
	}
}
