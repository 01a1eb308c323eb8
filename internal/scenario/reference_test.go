package scenario

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/stats"
)

// The generator loop's shortcuts — key order, binary-search splitting,
// generating a day ahead of dispatch — are pinned here to the plain
// forms they replaced, which live on in this file as the reference
// models.

// driveSequential is Drive as a serial walk: it generates a day, then
// dispatches it, building each control UPDATE when dispatch reaches it,
// and only then generates the next day.
func driveSequential(w *World, build func(fabricRNG *stats.RNG) (Executor, error)) (*DriveStats, error) {
	rng := stats.NewRNG(w.Cfg.Seed ^ 0x52554e)
	ex, err := build(rng.Fork(1))
	if err != nil {
		return nil, err
	}
	dr := newDriver(w, ex, rng)
	for d := 0; d < w.Cfg.Days; d++ {
		dr.generate(d)
		if err := dr.dispatch(dr.ctlByDay[d]); err != nil {
			return dr.st, err
		}
	}
	return dr.st, nil
}

// generate fills dr.batches with day d's batches in emission order and
// counts them.
func (dr *driver) generate(d int) {
	var db dayBuf
	dr.fill(d, &db)
	dr.batches = make([]fabric.Batch, 0, db.n)
	for i := range db.n {
		dr.batches = append(dr.batches, *db.batch(int32(i)))
	}
	dr.blocks = append(dr.blocks, db.blocks...)
	dr.st.SplitSegments += db.splits
	dr.st.MaxDayBatches = max(dr.st.MaxDayBatches, len(dr.batches))
}

// orderDay is the dispatch order of a day held in one slice.
func orderDay(keys, spare []dayKey, batches []fabric.Batch) (order, left []dayKey) {
	keys = keys[:0]
	for i := range batches {
		keys = append(keys, dayKey{ns: batches[i].Time.UnixNano(), idx: int32(i)})
	}
	return sortKeys(keys, spare)
}

// dispatch hands the day's control messages and batches to the executor
// in chronological order.
func (dr *driver) dispatch(ctl []controlMsg) error {
	slices.SortStableFunc(ctl, func(a, b controlMsg) int { return cmp.Compare(a.ns, b.ns) })
	keys, _ := orderDay(nil, nil, dr.batches)
	ci := 0
	for _, k := range keys {
		for ; ci < len(ctl) && ctl[ci].ns <= k.ns; ci++ {
			if err := dr.controlNow(&ctl[ci]); err != nil {
				return err
			}
		}
		if err := dr.ex.Inject(&dr.batches[k.idx]); err != nil {
			return err
		}
		dr.st.Batches++
	}
	for ; ci < len(ctl); ci++ {
		if err := dr.controlNow(&ctl[ci]); err != nil {
			return err
		}
	}
	return nil
}

// controlNow builds and delivers one scheduled UPDATE.
func (dr *driver) controlNow(cm *controlMsg) error {
	upd, err := buildControlUpdate(cm, dr.gen)
	if err != nil {
		return err
	}
	if err := dr.ex.Control(cm.t, cm.event.Peer, upd); err != nil {
		return err
	}
	switch {
	case cm.fs:
	case cm.announce:
		dr.st.Announcements++
	default:
		dr.st.Withdrawals++
	}
	return nil
}

// stableOrder is the reference day order: the batches themselves through
// a stable sort on their time.Time starts. Each carries its emission
// index in Packets so the resulting permutation can be read back.
func stableOrder(batches []fabric.Batch) []int {
	tagged := slices.Clone(batches)
	for i := range tagged {
		tagged[i].Packets = int64(i)
	}
	slices.SortStableFunc(tagged, func(a, b fabric.Batch) int { return a.Time.Compare(b.Time) })
	order := make([]int, len(tagged))
	for i := range tagged {
		order[i] = int(tagged[i].Packets)
	}
	return order
}

// checkDayOrder compares orderDay against stableOrder index for index
// and returns how many batches tie with their predecessor in the order.
func checkDayOrder(t *testing.T, name string, batches []fabric.Batch) (ties int) {
	t.Helper()
	keys, _ := orderDay(nil, nil, batches)
	want := stableOrder(batches)
	if len(keys) != len(want) {
		t.Fatalf("%s: %d keys for %d batches", name, len(keys), len(want))
	}
	for i, k := range keys {
		if int(k.idx) != want[i] {
			t.Fatalf("%s: position %d dispatches batch %d, the stable sort has %d", name, i, k.idx, want[i])
		}
		if k.ns != batches[k.idx].Time.UnixNano() {
			t.Fatalf("%s: key %d carries %d, its batch starts at %d", name, i, k.ns, batches[k.idx].Time.UnixNano())
		}
		if i > 0 && k.ns == keys[i-1].ns {
			ties++
		}
	}
	return ties
}

// syntheticDay draws n batches over one day in which a batch repeats its
// predecessor's start with probability tie, so equal instants are the
// rule and sit at arbitrary emission distances.
func syntheticDay(r *stats.RNG, dayStart time.Time, n int, tie float64) []fabric.Batch {
	batches := make([]fabric.Batch, n)
	var starts []time.Time
	for i := range batches {
		switch {
		case len(starts) > 0 && r.Bool(tie):
			batches[i].Time = starts[r.Intn(len(starts))]
		case r.Bool(0.3):
			batches[i].Time = dayStart.Add(time.Duration(r.Intn(288)) * attackSlotDuration)
		default:
			batches[i].Time = dayStart.Add(time.Duration(r.Int63n(dayNanos)))
		}
		starts = append(starts, batches[i].Time)
		batches[i].Duration = time.Duration(1 + r.Int63n(int64(time.Hour)))
		batches[i].Packets = 1 + r.Int63n(1000)
	}
	return batches
}

// actionLog records the order Drive's interleave dispatches in.
type actionLog struct{ actions []string }

func (l *actionLog) Control(ts time.Time, peerAS uint32, _ *bgp.Update) error {
	l.actions = append(l.actions, fmt.Sprintf("control %d peer %d", ts.UnixNano(), peerAS))
	return nil
}

func (l *actionLog) Inject(b *fabric.Batch) error {
	l.actions = append(l.actions, fmt.Sprintf("batch %d src %d", b.Time.UnixNano(), b.SrcIP))
	return nil
}

// referenceInterleave is the dispatch loop as it was: both streams
// through a stable sort on time.Time, merged with control winning ties.
func referenceInterleave(ctl []controlMsg, batches []fabric.Batch) []string {
	ctl, batches = slices.Clone(ctl), slices.Clone(batches)
	slices.SortStableFunc(ctl, func(a, b controlMsg) int { return a.t.Compare(b.t) })
	slices.SortStableFunc(batches, func(a, b fabric.Batch) int { return a.Time.Compare(b.Time) })
	var log actionLog
	ci, bi := 0, 0
	for ci < len(ctl) || bi < len(batches) {
		if ci < len(ctl) && (bi >= len(batches) || !batches[bi].Time.Before(ctl[ci].t)) {
			log.Control(ctl[ci].t, ctl[ci].event.Peer, nil)
			ci++
			continue
		}
		log.Inject(&batches[bi])
		bi++
	}
	return log.actions
}

func TestDayOrderMatchesStableSort(t *testing.T) {
	// Real days: every day of the test world, plain and escalating.
	for _, policy := range []string{"", "escalate"} {
		cfg := TestConfig()
		cfg.MitigationPolicy = policy
		w, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(cfg.Seed ^ 0x52554e)
		rng.Fork(1) // the fabric's substream, as Drive forks it
		dr := newDriver(w, &countingExecutor{}, rng)
		var total, ties int
		for d := 0; d < cfg.Days; d++ {
			dr.generate(d)
			ties += checkDayOrder(t, fmt.Sprintf("policy %q day %d", policy, d), dr.batches)
			total += len(dr.batches)
			// driver.split looks for a host-day's transitions inside the
			// day only, which holds as long as no batch leaves its day.
			dayStart := cfg.Start.AddDate(0, 0, d)
			for i := range dr.batches {
				b := &dr.batches[i]
				if b.Time.Before(dayStart) || b.Time.Add(b.Duration).After(dayStart.Add(24*time.Hour)) {
					t.Fatalf("policy %q day %d: batch %d covers %v + %v, outside its day", policy, d, i, b.Time, b.Duration)
				}
			}
			// Dispatching draws from the generator stream, so the next
			// day is the one a real run would produce.
			if err := dr.dispatch(dr.ctlByDay[d]); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("policy %q: %d batches, %.0f%% start with their predecessor", policy, total, 100*float64(ties)/float64(total))
		if ties*2 < total {
			t.Errorf("policy %q: only %d of %d batches tie; the test world no longer exercises tie order", policy, ties, total)
		}
	}

	// Synthetic days where ties dominate, and the degenerate sizes.
	r := stats.NewRNG(0xDA7)
	dayStart := TestConfig().Start
	for _, n := range []int{0, 1, 2, 17, 4096, 4097, 30000} {
		batches := syntheticDay(r, dayStart, n, 0.75)
		ties := checkDayOrder(t, fmt.Sprintf("synthetic n=%d", n), batches)
		if n >= 4096 && float64(ties) < 0.7*float64(n) {
			t.Errorf("synthetic n=%d: %d ties, want > 70%%", n, ties)
		}
	}
	same := syntheticDay(r, dayStart, 500, 0)
	for i := range same {
		same[i].Time = dayStart
	}
	checkDayOrder(t, "one instant", same)

	// The interleave: control messages land exactly on batch starts
	// (before, between and after runs of tied batches), share instants
	// with each other, and fall between batches too.
	for trial := 0; trial < 20; trial++ {
		batches := syntheticDay(r, dayStart, 400, 0.75)
		for i := range batches {
			batches[i].SrcIP = uint32(i) // identity in the action log, as the peer is a control message's
		}
		var ctl []controlMsg
		for i := 0; i < 120; i++ {
			at := batches[r.Intn(len(batches))].Time
			switch {
			case r.Bool(0.2):
				at = dayStart.Add(time.Duration(r.Int63n(dayNanos)))
			case r.Bool(0.1):
				at = at.Add(-time.Nanosecond)
			case r.Bool(0.1):
				at = at.Add(time.Nanosecond)
			}
			ctl = append(ctl, controlMsg{ns: at.UnixNano(), t: at,
				event: &Event{Peer: uint32(1000 + i)}, announce: r.Bool(0.5)})
		}
		want := referenceInterleave(ctl, batches)
		var log actionLog
		dr := &driver{ex: &log, st: &DriveStats{}, gen: stats.NewRNG(1), batches: batches}
		if err := dr.dispatch(ctl); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(log.actions, want) {
			for i := range want {
				if i >= len(log.actions) || log.actions[i] != want[i] {
					t.Fatalf("trial %d: action %d is %q, the reference has %q", trial, i, log.actions[i], want[i])
				}
			}
			t.Fatalf("trial %d: %d actions, the reference has %d", trial, len(log.actions), len(want))
		}
		if dr.st.Batches != int64(len(batches)) {
			t.Fatalf("trial %d: DriveStats.Batches = %d for %d batches", trial, dr.st.Batches, len(batches))
		}
	}
}

// referenceSplit is splitBatch as it was: by value, a linear scan of the
// whole time.Time transition list, a cuts slice.
func referenceSplit(dst []fabric.Batch, b fabric.Batch, transitions []time.Time) []fabric.Batch {
	end := b.Time.Add(b.Duration)
	var cuts []time.Time
	for _, t := range transitions {
		if t.After(b.Time) && t.Before(end) {
			cuts = append(cuts, t)
		}
	}
	if len(cuts) == 0 {
		return append(dst, b)
	}
	prev := b.Time
	total := float64(b.Duration)
	remaining := b.Packets
	for i := 0; i <= len(cuts); i++ {
		var segEnd time.Time
		if i < len(cuts) {
			segEnd = cuts[i]
		} else {
			segEnd = end
		}
		seg := b
		seg.Time = prev
		seg.Duration = segEnd.Sub(prev)
		if i < len(cuts) {
			seg.Packets = int64(float64(b.Packets) * float64(seg.Duration) / total)
		} else {
			seg.Packets = remaining
		}
		remaining -= seg.Packets
		if seg.Packets > 0 && seg.Duration > 0 {
			dst = append(dst, seg)
		}
		prev = segEnd
	}
	return dst
}

// sameBatches compares two batch lists field for field; the time.Time
// fields by representation, the hooks by identity.
func sameBatches(t *testing.T, name string, got, want []fabric.Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d segments, the reference has %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if reflect.ValueOf(g.VaryPorts).Pointer() != reflect.ValueOf(w.VaryPorts).Pointer() ||
			reflect.ValueOf(g.VarySrcIP).Pointer() != reflect.ValueOf(w.VarySrcIP).Pointer() {
			t.Fatalf("%s: segment %d carries different hooks", name, i)
		}
		g.VaryPorts, g.VarySrcIP, w.VaryPorts, w.VarySrcIP = nil, nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: segment %d\n got %+v\nwant %+v", name, i, g, w)
		}
	}
}

func TestSplitBatchMatchesLinearReference(t *testing.T) {
	r := stats.NewRNG(0x5917)
	base := TestConfig().Start
	hook := func(*stats.RNG) uint32 { return 7 }
	for trial := 0; trial < 3000; trial++ {
		// A batch: mostly ordinary, sometimes zero-length, one packet,
		// or too few packets for its pieces.
		b := fabric.Batch{
			Time:     base.Add(time.Duration(r.Int63n(int64(48 * time.Hour)))),
			Duration: time.Duration(1 + r.Int63n(int64(6*time.Hour))),
			Packets:  1 + r.Int63n(1_000_000),
			SrcIP:    uint32(trial), DstIP: 9, Proto: 17, PacketSize: 100,
			Owner: 5, FixedSrcPort: trial%2 == 0, BilateralDropFraction: float64(trial%3) / 2,
			VarySrcIP: hook,
		}
		switch r.Intn(8) {
		case 0:
			b.Duration = 0
		case 1:
			b.Packets = 1
		case 2:
			b.Packets = int64(r.Intn(4))
		case 3:
			b.Duration = time.Duration(1 + r.Intn(3))
		}
		end := b.Time.Add(b.Duration)

		// A transition list: anywhere around the batch, exactly on its
		// start and end, one nanosecond inside them, and duplicated.
		var ts []time.Time
		for n := r.Intn(12); n > 0; n-- {
			var at time.Time
			switch r.Intn(8) {
			case 0:
				at = b.Time
			case 1:
				at = end
			case 2:
				at = b.Time.Add(time.Nanosecond)
			case 3:
				at = end.Add(-time.Nanosecond)
			case 4:
				if len(ts) > 0 {
					at = ts[r.Intn(len(ts))]
					break
				}
				fallthrough
			default:
				at = b.Time.Add(time.Duration(r.Int63n(int64(3*b.Duration)+2) - int64(b.Duration) - 1))
			}
			ts = append(ts, at)
		}
		slices.SortFunc(ts, time.Time.Compare)
		var tr transitions
		for _, at := range ts {
			tr = append(tr, at.UnixNano())
		}

		name := fmt.Sprintf("trial %d", trial)
		want := referenceSplit(nil, b, ts)
		got := splitBatch(nil, &b, tr)
		sameBatches(t, name, got, want)
		var packets int64
		for _, seg := range got {
			packets += seg.Packets
		}
		if packets != b.Packets {
			t.Fatalf("%s: %d packets in, %d out", name, b.Packets, packets)
		}

		// The same batch as a group of three through driver.split, whose
		// window test decides whether splitBatch runs at all.
		dr := &driver{batches: []fabric.Batch{b, b, b}}
		dr.split(tr, b.Time.UnixNano(), end.UnixNano())
		sameBatches(t, name+" as a group", dr.batches, slices.Concat(want, want, want))
		if cut := int64(3 * len(want)); len(want) > 1 && dr.splits != cut {
			t.Fatalf("%s: SplitSegments = %d, want %d", name, dr.splits, cut)
		} else if len(want) <= 1 && dr.splits != 0 {
			t.Fatalf("%s: SplitSegments = %d for an uncut group", name, dr.splits)
		}
	}
}
