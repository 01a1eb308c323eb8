package timealign

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/bgp"
	"repro/internal/stats"
)

func mustMarshal(t *testing.T, a *Aggregator) []byte {
	t.Helper()
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// arrayModel is the reference model for the counted bounds: every
// interval stored in the two endpoint arrays, as the aggregator held them
// before it counted the clipped bounds, with their merge, snapshot and
// codec. Its intervals come from timeReference.
type arrayModel struct{ timeReference }

func (m *arrayModel) merge(o *arrayModel) {
	m.starts = append(m.starts, o.starts...)
	m.ends = append(m.ends, o.ends...)
	m.total += o.total
}

func (m *arrayModel) snapshot() *arrayModel {
	cp := *m
	cp.starts = append([]float64(nil), m.starts...)
	cp.ends = append([]float64(nil), m.ends...)
	return &cp
}

func (m *arrayModel) marshal() []byte {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Varint(m.total)
	for _, vals := range [][]float64{m.starts, m.ends} {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		w.Uvarint(uint64(len(sorted)))
		for _, v := range sorted {
			w.F64(v)
		}
	}
	return w.Bytes()
}

func (m *arrayModel) unmarshal(data []byte) {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	m.total = r.Varint()
	m.starts, m.ends = nil, nil
	for _, vals := range []*[]float64{&m.starts, &m.ends} {
		for n := r.Count(8); n > 0; n-- {
			*vals = append(*vals, r.F64())
		}
	}
}

func (m *arrayModel) estimate(step time.Duration) *Result {
	return sortedEstimate(&Aggregator{starts: m.starts, ends: m.ends, total: m.total}, step)
}

func sameResult(got, want *Result) bool {
	if len(got.Curve) != len(want.Curve) || got.Dropped != want.Dropped || got.BestOffset != want.BestOffset ||
		math.Float64bits(got.BestOverlap) != math.Float64bits(want.BestOverlap) {
		return false
	}
	for i := range want.Curve {
		if got.Curve[i].Offset != want.Curve[i].Offset ||
			math.Float64bits(got.Curve[i].Overlap) != math.Float64bits(want.Curve[i].Overlap) {
			return false
		}
	}
	return true
}

// TestCountedBoundsMatchArrayModel drives seeded sequences of AddDropped,
// Merge, Snapshot and a decode of the encoding over several aggregators
// and their array models, and demands equal encodings and equal Estimate
// curves after every step. The records sit inside long episodes (full
// windows), exactly 2 s after an announcement (a start of -2 s no clip
// made), exactly 3 s and 2 s before a withdrawal (an end at +3 s and one
// just inside the range), a nanosecond either side of those, and at
// random.
func TestCountedBoundsMatchArrayModel(t *testing.T) {
	pfx := []bgp.Prefix{bgp.MustParsePrefix("203.0.113.5/32"), bgp.MustParsePrefix("203.0.113.0/24")}
	steps := []time.Duration{10 * time.Millisecond, 7 * time.Millisecond, 1300 * time.Millisecond}
	var full, exactLow, exactHigh int
	for seed := uint64(1); seed <= 6; seed++ {
		r := stats.NewRNG(seed)
		var us []analysis.ControlUpdate
		at := t0
		for i := 0; i < 60; i++ {
			at = at.Add(time.Duration(1+r.Intn(20_000)) * time.Millisecond)
			u := analysis.ControlUpdate{Time: at, Peer: 100, Prefix: pfx[r.Intn(len(pfx))], Announce: r.Bool(0.5)}
			if u.Announce {
				u.Communities = bgp.Communities{bgp.Blackhole}
			}
			us = append(us, u)
		}
		evs := events.Merge(us, events.DefaultDelta, pEnd)
		ix := events.NewIndex(evs, pEnd)
		var probes []time.Time
		for _, e := range evs {
			for _, ep := range e.Episodes {
				wd := ep.Withdraw
				if wd.IsZero() {
					wd = pEnd
				}
				for _, p := range []time.Time{ep.Announce.Add(SearchRange), wd.Add(-SearchRange - time.Second), wd.Add(-SearchRange)} {
					probes = append(probes, p, p.Add(-1), p.Add(1))
				}
				if mid := ep.Announce.Add(wd.Sub(ep.Announce) / 2); wd.Sub(ep.Announce) > 2*SearchRange {
					probes = append(probes, mid)
				}
			}
		}
		for i := 0; i < 100; i++ {
			probes = append(probes, t0.Add(time.Duration(r.Int63n(int64(at.Sub(t0)+time.Minute)))))
		}

		const n = 3
		var got [n]*Aggregator
		var want [n]*arrayModel
		var cur [n]*events.Cursor
		for i := range got {
			got[i], want[i], cur[i] = New(), &arrayModel{timeReference{index: ix}}, events.NewCursor(ix)
		}
		for op := 0; op < 400; op++ {
			i, j := r.Intn(n), r.Intn(n)
			switch k := r.Intn(20); {
			case k < 16:
				ip := pfx[0].Addr
				if r.Bool(0.3) {
					ip = pfx[1].Addr + 9
				}
				at := probes[r.Intn(len(probes))]
				got[i].AddDropped(cur[i], ip, at)
				want[i].addDropped(ip, at)
			case k == 16 && i != j:
				got[i].Merge(got[j])
				want[i].merge(want[j])
				got[j], want[j] = New(), &arrayModel{timeReference{index: ix}}
			case k == 17:
				got[j], want[j] = got[i].Snapshot(), want[i].snapshot()
			default:
				data := mustMarshal(t, got[i])
				dec := New()
				if err := dec.UnmarshalBinary(data); err != nil {
					t.Fatalf("seed %d op %d: decoding the encoding: %v", seed, op, err)
				}
				m := &arrayModel{timeReference{index: ix}}
				m.unmarshal(want[i].marshal())
				got[j], want[j] = dec, m
			}
			for k := range got {
				if g, w := mustMarshal(t, got[k]), want[k].marshal(); !bytes.Equal(g, w) {
					t.Fatalf("seed %d op %d: aggregator %d encodes %d bytes unlike its model's %d", seed, op, k, len(g), len(w))
				}
			}
			step := steps[r.Intn(len(steps))]
			if !sameResult(got[i].Estimate(step), want[i].estimate(step)) {
				t.Fatalf("seed %d op %d: aggregator %d's curve at step %v differs from its model's", seed, op, i, step)
			}
		}
		for _, m := range want {
			for k := range m.starts {
				full += b2i(m.starts[k] == minStart && m.ends[k] == maxEnd)
				exactLow += b2i(m.starts[k] == minStart && m.ends[k] != maxEnd)
				exactHigh += b2i(m.starts[k] != minStart && m.ends[k] == maxEnd)
			}
		}
	}
	if full == 0 || exactLow == 0 || exactHigh == 0 {
		t.Fatalf("%d full windows, %d lone -2 s starts, %d lone +3 s ends: a case is vacuous", full, exactLow, exactHigh)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDecodeCountsBoundsApart decodes blobs whose -2 s starts do not all
// belong to full windows, and whose +3 s ends do not either, and holds
// the decoded state to the array model: equal encoding, equal curve, and
// after a merge with a live aggregator too. Blobs with a start below
// -2 s or an end above +3 s, which AddDropped never writes, are refused.
func TestDecodeCountsBoundsApart(t *testing.T) {
	blob := func(total int64, starts, ends []float64) []byte {
		m := &arrayModel{}
		m.total, m.starts, m.ends = total, starts, ends
		return m.marshal()
	}
	ix := indexWithEpisode(t, t0, t0.Add(10*time.Minute))
	for _, b := range [][]byte{
		blob(4, []float64{-2, -2, -1.5, 0.25}, []float64{0.5, 1.75, 3, 3}),
		blob(3, []float64{-2, -2, -2}, []float64{-1, 2.5, 2.999}),
		blob(2, []float64{-1, 1}, []float64{3, 3}),
		blob(9, nil, nil),
	} {
		got := New()
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("decode: %v", err)
		}
		want := &arrayModel{timeReference{index: ix}}
		want.unmarshal(b)
		live, liveModel := New(), &arrayModel{timeReference{index: ix}}
		c := events.NewCursor(ix)
		for _, at := range []time.Time{t0.Add(time.Minute), t0.Add(SearchRange), t0.Add(10*time.Minute - 3*time.Second)} {
			live.AddDropped(c, prefix.Addr, at)
			liveModel.addDropped(prefix.Addr, at)
		}
		for round := 0; round < 2; round++ {
			if g, w := mustMarshal(t, got), want.marshal(); !bytes.Equal(g, w) {
				t.Fatalf("round %d: encoding %x, model %x", round, g, w)
			}
			if !sameResult(got.Estimate(20*time.Millisecond), want.estimate(20*time.Millisecond)) {
				t.Fatalf("round %d: curve differs from the model's", round)
			}
			if round == 0 {
				got.Merge(live)
				want.merge(liveModel)
			}
		}
	}
	for _, b := range [][]byte{
		blob(1, []float64{-2.5}, []float64{1}),
		blob(1, []float64{-1}, []float64{3.5}),
		blob(1, []float64{-2, -2}, []float64{3}),
	} {
		if err := New().UnmarshalBinary(b); err == nil {
			t.Errorf("decoded %x", b)
		}
	}
}
