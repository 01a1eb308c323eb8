package events

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// mergerPrefixes nest (/32 in /24 in /16) and share addresses across
// lengths, so longest-prefix precedence and the address tie-break of the
// ID order are both in play.
var mergerPrefixes = []bgp.Prefix{
	bgp.MustParsePrefix("203.0.113.5/32"),
	bgp.MustParsePrefix("203.0.113.0/32"),
	bgp.MustParsePrefix("203.0.113.0/24"),
	bgp.MustParsePrefix("203.0.0.0/16"),
	bgp.MustParsePrefix("198.51.100.7/32"),
}

// mergerStream draws n updates that hit every rule of the merge: steps of
// zero (equal timestamps, across streams and within one), steps short of,
// exactly at and just past delta, long ones, re-announcements of active
// routes, withdraws of routes never announced or already withdrawn, and
// targeting communities on some announcements.
func mergerStream(seed uint64, n int) []analysis.ControlUpdate {
	r := stats.NewRNG(seed)
	peers := []uint32{300, 100, 200}
	steps := []time.Duration{0, 0, 0, time.Second, 3 * time.Minute,
		DefaultDelta - time.Second, DefaultDelta, DefaultDelta + time.Second, 2 * time.Hour}
	at := t0
	out := make([]analysis.ControlUpdate, 0, n)
	for i := 0; i < n; i++ {
		at = at.Add(steps[r.Intn(len(steps))])
		u := analysis.ControlUpdate{
			Time:     at,
			Peer:     peers[r.Intn(len(peers))],
			Prefix:   mergerPrefixes[r.Intn(len(mergerPrefixes))],
			Announce: r.Bool(0.55),
		}
		if u.Announce {
			u.OriginAS = 64500 + uint32(r.Intn(3))
			u.Communities = bgp.Communities{bgp.Blackhole}
			if r.Bool(0.3) {
				u.Communities = append(u.Communities, bgp.MakeCommunity(0, uint16(1+r.Intn(4))))
			}
		}
		out = append(out, u)
	}
	return out
}

// deepCopyEvents copies a published view down to the last episode.
func deepCopyEvents(evs []*Event) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = *e
		out[i].Episodes = slices.Clone(e.Episodes)
		out[i].Excluded = maps.Clone(e.Excluded)
	}
	return out
}

// sameEvents compares a view with a deep copy (or another view's), event
// by event and field by field.
func sameEvents(got []*Event, want []Event) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], &want[i]
		if g.ID != w.ID || g.Prefix != w.Prefix || g.Peer != w.Peer || g.OriginAS != w.OriginAS ||
			g.Announcements != w.Announcements || !slices.Equal(g.Episodes, w.Episodes) ||
			!maps.Equal(g.Excluded, w.Excluded) || (g.Excluded == nil) != (w.Excluded == nil) {
			return fmt.Errorf("event %d: %+v, want %+v", i, *g, *w)
		}
	}
	return nil
}

// checkView pins the merger's view after an Extend to the one-shot Merge
// and NewIndex over the same prefix of the stream: the events, the index
// structure (the same prefixes and lengths, and per-prefix event order)
// and the answers of a fresh Cursor at probe points around the updates (a
// dozen of them, spread over the stream, the last always among them).
func checkView(m *Merger, prefix []analysis.ControlUpdate) error {
	want := Merge(prefix, DefaultDelta, pEnd)
	if err := sameEvents(m.Events(), deepCopyEvents(want)); err != nil {
		return err
	}
	if !reflect.DeepEqual(m.Updates(), prefix) && len(prefix) > 0 {
		return fmt.Errorf("Updates() is not the folded stream")
	}
	ix, wantIx := m.Index(), NewIndex(want, pEnd)
	if ix.spans.Lengths() != wantIx.spans.Lengths() || ix.spans.Len() != wantIx.spans.Len() {
		return fmt.Errorf("index shape: lengths %#x (want %#x), %d prefixes (want %d)",
			ix.spans.Lengths(), wantIx.spans.Lengths(), ix.spans.Len(), wantIx.spans.Len())
	}
	var err error
	wantIx.spans.Each(func(p bgp.Prefix, wsps []eventSpan) {
		sps, _ := ix.spans.Get(p)
		switch {
		case err != nil:
		case len(sps) != len(wsps):
			err = fmt.Errorf("prefix %s: %d spans, want %d", p, len(sps), len(wsps))
		default:
			for i := range wsps {
				g, w := &sps[i], &wsps[i]
				if g.ev != m.all[w.ev.ID] || g.start != w.start || g.end != w.end || !slices.Equal(g.eps, w.eps) {
					err = fmt.Errorf("prefix %s span %d: event %d [%d,%d] %v, want event %d [%d,%d] %v",
						p, i, g.ev.ID, g.start, g.end, g.eps, w.ev.ID, w.start, w.end, w.eps)
					break
				}
			}
		}
	})
	if err != nil {
		return err
	}

	cur, wantCur := NewCursor(ix), NewCursor(wantIx)
	ips := []uint32{0, 0xffffffff}
	for _, p := range mergerPrefixes {
		last := p.Addr + uint32(1)<<(32-p.Len) - 1
		ips = append(ips, p.Addr, last, p.Addr-1, last+1)
	}
	for i := len(prefix) - 1; i >= 0; i -= 1 + len(prefix)/12 {
		for _, off := range []time.Duration{-PreWindow, -time.Second, 0, time.Second, DefaultDelta / 2} {
			at := prefix[i].Time.Add(off)
			for _, ip := range ips {
				g, w := cur.LookupNs(ip, at.UnixNano()), wantCur.LookupNs(ip, at.UnixNano())
				if (g.Event == nil) != (w.Event == nil) || g.Active != w.Active || g.Prefix != w.Prefix ||
					(g.Event != nil && g.Event.ID != w.Event.ID) {
					return fmt.Errorf("Lookup(%08x, %v) = %+v, want %+v", ip, at, g, w)
				}
				gp, gok := cur.EverBlackholed(ip)
				wp, wok := wantCur.EverBlackholed(ip)
				if gp != wp || gok != wok {
					return fmt.Errorf("EverBlackholed(%08x) = %v %v, want %v %v", ip, gp, gok, wp, wok)
				}
				gp, gok = cur.InterestingNs(ip, at.UnixNano())
				wp, wok = wantCur.InterestingNs(ip, at.UnixNano())
				if gp != wp || gok != wok {
					return fmt.Errorf("Interesting(%08x, %v) = %v %v, want %v %v", ip, at, gp, gok, wp, wok)
				}
				lo, hi := at.Add(-time.Hour).UnixNano(), at.Add(time.Hour).UnixNano()
				if g, w := cur.Episodes(nil, ip, lo, hi), wantCur.Episodes(nil, ip, lo, hi); !slices.Equal(g, w) {
					return fmt.Errorf("Episodes(%08x, %v±1h) = %v, want %v", ip, at, g, w)
				}
			}
		}
	}
	return nil
}

// extendInPieces feeds us to a fresh Merger cut after the given positions
// and checks every intermediate view against the reference, then every
// view published on the way against the deep copy taken when it was: an
// Extend never writes what an earlier one handed out.
func extendInPieces(us []analysis.ControlUpdate, cuts []int) error {
	type published struct {
		at   int
		evs  []*Event
		copy []Event
	}
	var views []published
	m := NewMerger(DefaultDelta, pEnd)
	m.Index() // from the start, as the online analyzer holds it
	from := 0
	for _, to := range append(cuts, len(us)) {
		if n := m.Extend(us[from:to]); n != to-from {
			return fmt.Errorf("Extend(us[%d:%d]) folded %d updates", from, to, n)
		}
		from = to
		if err := checkView(m, us[:to]); err != nil {
			return fmt.Errorf("after %d of %d updates: %w", to, len(us), err)
		}
		evs := m.Events()
		views = append(views, published{to, evs, deepCopyEvents(evs)})
	}
	for _, v := range views {
		if err := sameEvents(v.evs, v.copy); err != nil {
			return fmt.Errorf("the view published after %d updates was written later: %w", v.at, err)
		}
	}
	return nil
}

// TestMergerMatchesMergeOnEverySplit is the reference-model test for the
// incremental control-plane view: short streams cut into every k-way split
// there is (all 2^(n-1) compositions), long ones at every single cut
// point, update by update, and into random k-way splits.
func TestMergerMatchesMergeOnEverySplit(t *testing.T) {
	copies, displaced := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		us := mergerStream(seed, 9)
		for mask := 0; mask < 1<<(len(us)-1); mask++ {
			var cuts []int
			for i := 1; i < len(us); i++ {
				if mask&(1<<(i-1)) != 0 {
					cuts = append(cuts, i)
				}
			}
			if err := extendInPieces(us, cuts); err != nil {
				t.Fatalf("seed %d, cuts %v: %v", seed, cuts, err)
			}
		}
	}
	for seed := uint64(100); seed < 104; seed++ {
		us := mergerStream(seed, 90)
		var every []int
		for i := 1; i < len(us); i++ {
			every = append(every, i)
			if err := extendInPieces(us, []int{i}); err != nil {
				t.Fatalf("seed %d, cut %d: %v", seed, i, err)
			}
		}
		if err := extendInPieces(us, every); err != nil {
			t.Fatalf("seed %d, update by update: %v", seed, err)
		}
		r := stats.NewRNG(seed)
		for k := 3; k <= 12; k++ {
			cuts := make([]int, 0, k-1)
			for len(cuts) < k-1 {
				if c := 1 + r.Intn(len(us)-1); !slices.Contains(cuts, c) {
					cuts = append(cuts, c)
				}
			}
			slices.Sort(cuts)
			if err := extendInPieces(us, cuts); err != nil {
				t.Fatalf("seed %d, cuts %v: %v", seed, cuts, err)
			}
		}

		// The streams must reach the two hard cases: an update that touches
		// a published event, and a new event that takes a published one's ID.
		m := NewMerger(DefaultDelta, pEnd)
		for i := range us {
			before := m.Events()
			m.Extend(us[i : i+1])
			after := m.Events()
			for id, e := range before {
				if after[id] != e && after[id].Start().Equal(e.Start()) && after[id].Prefix == e.Prefix && after[id].Peer == e.Peer {
					copies++
				} else if after[id] != e {
					displaced++
				}
			}
		}
	}
	if copies == 0 || displaced == 0 {
		t.Fatalf("%d published events were replaced by a copy, %d displaced to another ID: the streams exercise nothing", copies, displaced)
	}
}

// TestMergerRebuildsOnOutOfOrderSuffix exercises the fallback: a suffix
// that steps back behind the view, or within itself, rebuilds the view
// from the stably re-sorted stream — what a batch parse would merge — and
// leaves the views published before it alone. The index is rebuilt in
// place, under a new epoch.
func TestMergerRebuildsOnOutOfOrderSuffix(t *testing.T) {
	us := mergerStream(7, 60)
	late := us[20]
	arrival := append(append(slices.Clone(us[:20]), us[21:41]...), late) // update 20 arrives after update 40
	arrival = append(arrival, us[41:]...)
	sorted := slices.Clone(arrival)
	analysis.SortUpdates(sorted)

	for _, cut := range []int{30, 40} { // the late update leads its suffix, or sits inside it
		m := NewMerger(DefaultDelta, pEnd)
		ix := m.Index()
		m.Extend(arrival[:cut])
		if err := checkView(m, arrival[:cut]); err != nil {
			t.Fatalf("cut %d: in-order prefix: %v", cut, err)
		}
		early := m.Events()
		earlyCopy := deepCopyEvents(early)
		epoch := ix.epoch
		if n := m.Extend(arrival[cut:45]); n != 45 {
			t.Fatalf("cut %d: the out-of-order suffix folded %d updates, want a rebuild over all 45", cut, n)
		}
		if m.Index() != ix || ix.epoch == epoch {
			t.Fatalf("cut %d: the rebuild left index %p at epoch %d, want %p past epoch %d", cut, m.Index(), m.Index().epoch, ix, epoch)
		}
		resorted := slices.Clone(arrival[:45])
		analysis.SortUpdates(resorted)
		if err := checkView(m, resorted); err != nil {
			t.Fatalf("cut %d: after the rebuild: %v", cut, err)
		}
		if n := m.Extend(arrival[45:]); n != len(arrival)-45 {
			t.Fatalf("cut %d: the in-order rest folded %d updates, want %d", cut, n, len(arrival)-45)
		}
		if err := checkView(m, sorted); err != nil {
			t.Fatalf("cut %d: after the rest: %v", cut, err)
		}
		if err := sameEvents(early, earlyCopy); err != nil {
			t.Fatalf("cut %d: the view published before the rebuild was written: %v", cut, err)
		}
	}
}
