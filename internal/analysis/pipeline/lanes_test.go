package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/collateral"
	"repro/internal/analysis/dropstats"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/protomix"
	"repro/internal/analysis/timealign"
	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The parity fixture: several blackholed prefixes of different lengths,
// repeated episodes, and two announcing peers.
var (
	block26 = bgp.MustParsePrefix("203.0.113.64/26")
	net24   = bgp.MustParsePrefix("198.51.100.0/24")
	solo32  = bgp.MustParsePrefix("192.0.2.77/32")
)

type episode struct {
	prefix     bgp.Prefix
	start, end time.Time
}

func parityEpisodes() []episode {
	return []episode{
		{victim, t0, t0.Add(time.Hour)},
		{victim, t0.Add(48 * time.Hour), t0.Add(49 * time.Hour)},
		{block26, t0.Add(2 * time.Hour), t0.Add(3 * time.Hour)},
		{net24, t0.Add(30 * time.Minute), t0.Add(90 * time.Minute)},
		{solo32, t0.Add(24 * time.Hour), t0.Add(25 * time.Hour)},
	}
}

func parityUpdates() []analysis.ControlUpdate {
	var ups []analysis.ControlUpdate
	for i, ep := range parityEpisodes() {
		peer := uint32(100)
		if i%2 == 1 {
			peer = 200
		}
		ups = append(ups,
			analysis.ControlUpdate{Time: ep.start, Peer: peer, Prefix: ep.prefix,
				Announce: true, OriginAS: 777, Communities: bgp.Communities{bgp.Blackhole}},
			analysis.ControlUpdate{Time: ep.end, Peer: peer, Prefix: ep.prefix})
	}
	return ups
}

// blackholedAddr picks a deterministic address inside one of the fixture
// prefixes.
func blackholedAddr(r *stats.RNG) uint32 {
	switch r.Intn(4) {
	case 0:
		return victim.Addr
	case 1:
		return block26.Addr + uint32(r.Intn(64))
	case 2:
		return net24.Addr + uint32(r.Intn(256))
	default:
		return solo32.Addr
	}
}

// parityStream is the seeded stream most tests share.
func parityStream(n int) []ipfix.FlowRecord { return seededStream(0xD15EA5E, n) }

// seededStream synthesizes a deterministic flow archive covering every
// pipeline path: internal records, dropped and forwarded attack traffic
// during events, pre-event bursts (anomaly window), multi-day legitimate
// traffic in both directions (host profiling), source-blackholed records,
// and unattributable noise.
func seededStream(seed uint64, n int) []ipfix.FlowRecord {
	r := stats.NewRNG(seed)
	meta := testMeta()
	eps := parityEpisodes()
	period := int64(meta.End.Sub(meta.Start))
	ampPorts := []uint16{389, 123, 53, 19, 161}

	recs := make([]ipfix.FlowRecord, 0, n)
	add := func(at time.Time, srcMAC, dstMAC ipfix.MAC, srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) {
		pkts := uint64(1 + r.Intn(20))
		recs = append(recs, ipfix.FlowRecord{
			Start: at, SrcMAC: srcMAC, DstMAC: dstMAC,
			SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort,
			Proto: proto, Packets: pkts, Bytes: 64 * pkts,
		})
	}
	randIP := func() uint32 {
		if r.Bool(0.5) {
			return 0x50000000 + uint32(r.Intn(1<<16)) // inside 80/8 -> AS9000
		}
		return uint32(r.Uint64())
	}
	randTime := func() time.Time { return meta.Start.Add(time.Duration(r.Int63n(period))) }

	for len(recs) < n {
		switch k := r.Intn(100); {
		case k < 5: // internal, cleaned away
			add(randTime(), memberMAC100, internalMAC, randIP(), randIP(), 1, 2, 6)
		case k < 35: // attack traffic during an episode
			ep := eps[r.Intn(len(eps))]
			at := ep.start.Add(time.Duration(r.Int63n(int64(ep.end.Sub(ep.start)))))
			dstMAC := memberMAC100
			if r.Bool(0.6) {
				dstMAC = blackholeMAC
			}
			dst := ep.prefix.Addr
			if bits := 32 - int(ep.prefix.Len); bits > 0 {
				dst += uint32(r.Intn(1 << bits))
			}
			add(at, memberMAC200, dstMAC, randIP(), dst, ampPorts[r.Intn(len(ampPorts))],
				uint16(1024+r.Intn(60000)), 17)
		case k < 55: // pre-event burst inside the anomaly window
			ep := eps[r.Intn(len(eps))]
			at := ep.start.Add(-time.Duration(1+r.Intn(19)) * time.Minute)
			add(at, memberMAC200, memberMAC100, randIP(), ep.prefix.Addr,
				ampPorts[r.Intn(len(ampPorts))], uint16(1024+r.Intn(60000)), 17)
		case k < 75: // legitimate multi-day traffic for host profiling
			host := blackholedAddr(r)
			at := meta.Start.Add(time.Duration(1+r.Intn(12))*24*time.Hour +
				time.Duration(r.Intn(6))*time.Hour)
			if r.Bool(0.5) {
				add(at, memberMAC200, memberMAC100, randIP(), host,
					uint16(20000+r.Intn(30000)), 443, 6)
			} else {
				add(at, memberMAC100, memberMAC200, host, randIP(),
					443, uint16(20000+r.Intn(30000)), 6)
			}
		case k < 85: // source-side blackholed host
			add(randTime(), memberMAC100, memberMAC200, blackholedAddr(r), randIP(),
				uint16(1024+r.Intn(60000)), 80, 6)
		default: // unattributable noise
			add(randTime(), memberMAC100, memberMAC200, randIP(), randIP(),
				uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16)), 6)
		}
	}
	return recs
}

// snapshot captures every derived outcome the report reads from a
// pipeline; two pipelines with equal snapshots produce identical reports.
type snapshot struct {
	Total, Internal, Attributed, Dropped int64
	FinalAttributed                      int64

	ByLength          []dropstats.LengthStat
	AvgPkts, AvgBytes float64
	Top               []dropstats.SourceBehaviour
	Classes           dropstats.SourceClasses
	DropEvents        int

	Slots    int
	Verdicts []anomaly.Verdict

	Shares     protomix.ProtocolShares
	Filterable []float64
	Origin     protomix.Participation
	Handover   protomix.Participation
	Scale      protomix.AttackScale

	Hosts    int
	Profiles []hosts.Profile

	Align *timealign.Result

	Collateral *collateral.Result
}

func snap(p *Pipeline) snapshot {
	ids := make([]int, len(p.Events))
	for i, e := range p.Events {
		ids[i] = e.ID
	}
	profiles := p.ComposeProfiles(2)
	return snapshot{
		Total: p.TotalRecords, Internal: p.InternalRecords,
		Attributed: p.AttributedRecords, Dropped: p.DroppedRecords,
		FinalAttributed: p.FinalAttributed(),

		ByLength:   p.Drop.ByLength(),
		Top:        p.Drop.TopSources(50),
		Classes:    p.Drop.ClassifyTopSources(50),
		DropEvents: p.Drop.Events(),

		Slots:    p.Anomaly.Slots(),
		Verdicts: p.Anomaly.Analyze(p.Events, p.Index.PeriodEnd(), anomaly.DefaultThreshold),

		Shares:     p.Proto.Shares(ids),
		Filterable: p.Proto.FilterableShares(ids),
		Origin:     p.Proto.OriginParticipation(ids),
		Handover:   p.Proto.HandoverParticipation(ids),
		Scale:      p.Proto.Scale(ids),

		Hosts:    p.Hosts.Hosts(),
		Profiles: profiles,

		Align: p.Align.Estimate(50 * time.Millisecond),

		Collateral: p.ComposeCollateral(profiles).Result(),
	}
}

func (s snapshot) mustEqual(t *testing.T, ref snapshot, label string) {
	t.Helper()
	if reflect.DeepEqual(s, ref) {
		return
	}
	rv, ov := reflect.ValueOf(ref), reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), ov.Field(i).Interface()) {
			t.Errorf("%s: field %s diverges:\nsequential: %+v\nparallel:   %+v",
				label, rv.Type().Field(i).Name, rv.Field(i).Interface(), ov.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Fatalf("%s: snapshots differ in unexported state", label)
	}
}

// TestParallelParity is the driver-level face of the lanes' guarantee: at
// every worker count the batch driver leaves the state the inline pass
// leaves, down to bounded-structure saturation behaviour. 0 is the
// default, 1 the inline pass, 2 stands for every N > 1 (accepted, and
// the same lanes as 0).
func TestParallelParity(t *testing.T) {
	recs := parityStream(30000)
	src := batchSource(chunkBatches(recs, 64)) // far more batches than ring slots

	seq, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	seq.ObserveRecords(recs)
	ref := snap(seq)
	if len(ref.Profiles) == 0 {
		t.Fatal("fixture produced no host profiles; parity would be vacuous")
	}
	if ref.Attributed == 0 || ref.Dropped == 0 || ref.Slots == 0 || ref.Shares.Packets == 0 {
		t.Fatalf("fixture too thin: %v", counters(seq))
	}

	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := pp.RunBatches(src); err != nil {
				t.Fatal(err)
			}
			snap(pp.Pipeline()).mustEqual(t, ref, fmt.Sprintf("workers=%d", workers))
		})
	}
}

// state is what TestLanesMatchInline compares: the four cleaning counters
// and the marshaled operator state.
func state(t *testing.T, p *Pipeline) ([4]int64, []byte) {
	t.Helper()
	blob, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return [4]int64{p.TotalRecords, p.InternalRecords, p.AttributedRecords, p.DroppedRecords}, blob
}

// mustMatchInline fails unless lanes holds the state inline holds.
func mustMatchInline(t *testing.T, inline, lanes *Pipeline) {
	t.Helper()
	wantC, want := state(t, inline)
	if c, blob := state(t, lanes); c != wantC || !bytes.Equal(blob, want) {
		t.Fatalf("lanes leave counters %v and %d state bytes, inline %v and %d", c, len(blob), wantC, len(want))
	}
}

// TestLanesMatchInline pins the lanes to the inline pass in each mode a
// pipeline observes in: a batch pipeline, a speculative one with wide
// gates under a control-plane view that does not yet know every
// blackhole, and the frozen clone of a speculative pipeline that has
// sealed half the stream (the online analyzer's snapshot). The lanes are
// started directly, so they run whatever GOMAXPROCS is; batches are
// handed over both ways (retained pooled batches and bare slices, some
// longer than a ring slot).
func TestLanesMatchInline(t *testing.T) {
	meta := testMeta()
	full := events.Merge(parityUpdates(), events.DefaultDelta, meta.End)
	early := events.Merge(parityUpdates()[:4], events.DefaultDelta, meta.End)
	throughLanes := func(p *Pipeline, recs []ipfix.FlowRecord, size int) {
		l := p.startLanes()
		half := len(recs) / 2
		for _, b := range chunkBatches(recs[:half], size) {
			l.ObserveBatch(b)
		}
		l.ObserveRecords(recs[half:]) // one slice, cut into ring slots
		l.Close()
	}

	for _, seed := range []uint64{0xD15EA5E, 1, 2} {
		recs := seededStream(seed, 20000)
		for _, size := range []int{7, 512, 3000} {
			name := fmt.Sprintf("seed=%x/batch=%d", seed, size)

			t.Run(name+"/batch", func(t *testing.T) {
				var got [2]*Pipeline
				for i := range got {
					p, err := New(meta, parityUpdates(), events.DefaultDelta)
					if err != nil {
						t.Fatal(err)
					}
					got[i] = p
				}
				got[0].ObserveRecords(recs)
				throughLanes(got[1], recs, size)
				mustMatchInline(t, got[0], got[1])
			})

			t.Run(name+"/wide", func(t *testing.T) {
				var got [2]*Pipeline
				for i := range got {
					p, err := NewSpeculative(meta)
					if err != nil {
						t.Fatal(err)
					}
					p.Rebind(early, events.NewIndex(early, meta.End))
					got[i] = p
				}
				got[0].ObserveRecords(recs)
				throughLanes(got[1], recs, size)
				if len(got[0].pairs) == 0 {
					t.Fatal("no pair was tallied; the wide gates were not exercised")
				}
				for _, p := range got {
					p.Rebind(full, events.NewIndex(full, meta.End))
				}
				mustMatchInline(t, got[0], got[1])
				if got[0].FinalAttributed() != got[1].FinalAttributed() {
					t.Fatalf("FinalAttributed: lanes %d, inline %d", got[1].FinalAttributed(), got[0].FinalAttributed())
				}
			})

			t.Run(name+"/frozen", func(t *testing.T) {
				sealed, err := NewSpeculative(meta)
				if err != nil {
					t.Fatal(err)
				}
				sealed.Rebind(full, events.NewIndex(full, meta.End))
				half := len(recs) / 2
				sealed.ObserveRecords(recs[:half])
				_, before := state(t, sealed)

				inline, lanes := sealed.Clone(), sealed.Clone()
				inline.Freeze()
				lanes.Freeze()
				inline.ObserveRecords(recs[half:])
				throughLanes(lanes, recs[half:], size)
				mustMatchInline(t, inline, lanes)
				if _, after := state(t, sealed); !bytes.Equal(before, after) {
					t.Fatal("replaying through a clone's lanes wrote the sealed state it shares")
				}
			})
		}
	}
}

// TestParallelSourceError verifies that a source error ends the pass:
// RunBatches returns it, every feed goroutine has exited by then, and
// every batch the lanes retained has been released.
func TestParallelSourceError(t *testing.T) {
	batches := chunkBatches(parityStream(5000), 64)
	boom := fmt.Errorf("boom")
	bad := BatchSource(func(fn ipfix.BatchSink) error {
		for _, b := range batches {
			if err := fn(b); err != nil {
				return err
			}
		}
		return boom
	})
	before := runtime.NumGoroutine()
	p, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	l := p.startLanes()
	err = bad(func(b *ipfix.RecordBatch) error { l.ObserveBatch(b); return nil })
	l.Close()
	if err != boom {
		t.Fatalf("source err = %v, want boom", err)
	}
	// Close has waited for the feeds to signal their exit; the runtime may
	// count a goroutine for an instant longer.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Close, %d before the pass", after, before)
	}
	for i, b := range batches {
		// chunkBatches holds the one reference left: dropping it empties
		// the batch unless the lanes still hold another.
		if b.Release(); len(b.Recs) != 0 {
			t.Fatalf("batch %d is still retained after Close", i)
		}
	}

	for _, workers := range []int{0, 1} {
		pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.RunBatches(func(ipfix.BatchSink) error { return boom }); err != boom {
			t.Fatalf("workers=%d: RunBatches err = %v, want boom", workers, err)
		}
	}
}

// TestLanesRingOutlivesPass checks the ring a pipeline keeps across passes
// (the online analyzer starts lanes at every seal check): a second pass
// reuses the first one's slots, and after Close no slot references the
// records or the pooled batch it carried — they go back to their owners
// while the idle ring stays with the pipeline.
func TestLanesRingOutlivesPass(t *testing.T) {
	recs := parityStream(5000)
	p, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	idle := func() map[*laneBatch]bool {
		t.Helper()
		if len(p.ring) != laneRing {
			t.Fatalf("%d of %d ring slots idle after Close", len(p.ring), laneRing)
		}
		slots := map[*laneBatch]bool{}
		for range laneRing {
			b := <-p.ring
			if b.recs != nil || b.owner != nil {
				t.Fatalf("an idle ring slot still references %d records (owner %p)", len(b.recs), b.owner)
			}
			slots[b] = true
			p.ring <- b
		}
		return slots
	}

	var seen []map[*laneBatch]bool
	for pass := 0; pass < 2; pass++ {
		l := p.startLanes()
		for i := 0; i < len(recs)/2; i += 64 {
			b := ipfix.GetBatch()
			b.Recs = append(b.Recs, recs[i:min(i+64, len(recs)/2)]...)
			l.ObserveBatch(b)
			b.Release()
		}
		l.ObserveRecords(recs[len(recs)/2:])
		l.Close()
		seen = append(seen, idle())
	}
	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatal("the second pass allocated a ring of its own")
	}
}

// TestParallelDefaultsWorkers checks what a worker count selects: 1 the
// inline pass, everything else — the default 0 and any N > 1 alike — the
// lanes, which need a second processor to be worth starting.
func TestParallelDefaultsWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 64} {
		pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, workers)
		if err != nil {
			t.Fatal(err)
		}
		l := pp.Pipeline().StartLanes(pp.inline)
		started := l.free != nil
		l.Close()
		if want := workers != 1 && runtime.GOMAXPROCS(0) > 1; started != want {
			t.Errorf("workers=%d at GOMAXPROCS %d: lanes started = %v, want %v", workers, runtime.GOMAXPROCS(0), started, want)
		}
	}
}

// TestParallelDispatchAccounting reconciles the pass's own accounting
// with what the stream holds, for the inline pass and the lanes alike:
// each feed's record counter equals the count of records its gate lets
// through, and attribution, feeds and a blocked source are busy only
// while the pass runs. An uninstrumented pass reads no clock at all (obs
// == nil on every path), which the parity tests above run through.
func TestParallelDispatchAccounting(t *testing.T) {
	recs := parityStream(30000)
	for _, mode := range []string{"inline", "lanes"} {
		t.Run(mode, func(t *testing.T) {
			p, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			p.RegisterMetrics(reg)

			start := time.Now()
			l := &Lanes{p: p}
			if mode == "lanes" {
				l = p.startLanes()
			}
			// Small batches: far more of them than ring slots, so the
			// source has to wait for the feeds.
			for _, b := range chunkBatches(recs, 64) {
				l.ObserveBatch(b)
			}
			l.Close()
			wall := int64(time.Since(start))

			// The gates, evaluated the plain way on a second pipeline.
			ref, err := New(testMeta(), parityUpdates(), events.DefaultDelta)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{}
			for i := range recs {
				r := &recs[i]
				if ref.Meta.IsInternal(r) {
					continue
				}
				if r.DstMAC == blackholeMAC {
					want["align"]++
				}
				if _, bh := ref.Index.EverBlackholed(r.DstIP); bh {
					m := ref.Index.Lookup(r.DstIP, r.Start)
					if m.Active {
						want["drop"]++
					}
					if m.Event != nil {
						want["proto"]++
						want["pending"]++
					}
					if _, ok := ref.Index.Interesting(r.DstIP, r.Start); ok {
						want["anomaly"]++
					}
				}
			}

			snap := reg.Snapshot()
			external := snap.Gauge("pipeline.records.total") - snap.Gauge("pipeline.records.internal")
			for _, f := range feeds {
				n := snap.Counter("pipeline.lane." + f.name + ".records")
				if w, ok := want[f.name]; ok && n != w {
					t.Errorf("pipeline.lane.%s.records = %d, want %d", f.name, n, w)
				}
				if n <= 0 || n > external {
					t.Errorf("pipeline.lane.%s.records = %d of %d external records", f.name, n, external)
				}
				if b := snap.Gauge("pipeline.lane." + f.name + ".busy_ns"); b <= 0 || b > wall {
					t.Errorf("feed %s busy %dns of a %dns pass", f.name, b, wall)
				}
			}
			if got := snap.Counter("pipeline.lane.align.records"); got != snap.Gauge("pipeline.records.dropped") {
				t.Errorf("pipeline.lane.align.records = %d, pipeline.records.dropped = %d", got, snap.Gauge("pipeline.records.dropped"))
			}
			if b := snap.Gauge("pipeline.attribute.busy_ns"); b <= 0 || b > wall {
				t.Errorf("attribution busy %dns of a %dns pass", b, wall)
			}
			if blocked := snap.Gauge("pipeline.lanes.blocked_ns"); blocked < 0 || blocked > wall || (mode == "inline" && blocked != 0) {
				t.Errorf("%s source blocked %dns of a %dns pass", mode, blocked, wall)
			}
		})
	}
}

// TestRebindRebindsCursors checks that a speculative pipeline's address
// memos follow Rebind: an address resolved as not blackholed under the
// old index must resolve under the new one, cover filter included.
func TestRebindRebindsCursors(t *testing.T) {
	p, err := NewSpeculative(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, cur := range []*events.Cursor{p.curDst, p.curSrc} {
		if _, ok := cur.EverBlackholed(victim.Addr); ok {
			t.Fatal("empty index blackholes the victim")
		}
	}
	evs := events.Merge(testUpdates(), events.DefaultDelta, p.Meta.End)
	p.Rebind(evs, events.NewIndex(evs, p.Meta.End))
	for _, cur := range []*events.Cursor{p.curDst, p.curSrc} {
		if got, ok := cur.EverBlackholed(victim.Addr); !ok || got != victim {
			t.Fatalf("after Rebind: EverBlackholed = %v, %v; want %v", got, ok, victim)
		}
		if m := cur.LookupNs(victim.Addr, t0.Add(time.Minute).UnixNano()); !m.Active {
			t.Fatalf("after Rebind: Lookup = %+v, want an active match", m)
		}
	}
	observe(p, rec(t0.Add(time.Minute), memberMAC200, blackholeMAC, 0x50000001, victim.Addr, 389, 4444, 17))
	if p.Align.Estimate(50*time.Millisecond).BestOverlap != 1 {
		t.Fatal("time alignment did not see the rebound index")
	}
}

// TestFlowExtendReachesCursor checks that the FlowSpec memo follows the
// bound view when it is extended in place, as the online analyzer's seal
// checks extend it: a destination resolved before its prefix had a
// window, and asked again right after the window was added, must fall in
// it.
func TestFlowExtendReachesCursor(t *testing.T) {
	p, err := NewSpeculative(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	ix := mitigation.NewIndex(nil, p.Meta.End)
	p.BindFlow(ix)
	r := rec(t0.Add(time.Minute), memberMAC200, memberMAC100, 0x50000001, victim.Addr, 389, 4444, 17)
	observe(p, r)
	if n := p.Mit.Prefixes(); n != 0 {
		t.Fatalf("%d prefixes measured under FlowSpec before any window", n)
	}
	rule := &bgp.FlowRule{Dst: victim, HasDst: true, Protos: []uint8{17}}
	ix.Extend([]analysis.FlowUpdate{{Time: t0, Peer: 100, Rule: rule, Announce: true}})
	observe(p, r)
	if n := p.Mit.Prefixes(); n != 1 {
		t.Fatalf("%d prefixes measured under FlowSpec after the view gained a window on %v, want 1", n, victim)
	}
}

// TestRTBHExtendReachesCursor is TestFlowExtendReachesCursor for the
// event view: bound once, as the online analyzer binds it, and extended in
// place by an events.Merger. A dropped record to a destination resolved
// before its prefix was blackholed, observed again right after the event
// was added, must be attributed, and time alignment must see the episode.
func TestRTBHExtendReachesCursor(t *testing.T) {
	p, err := NewSpeculative(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	m := events.NewMerger(events.DefaultDelta, p.Meta.End)
	p.Rebind(m.Events(), m.Index())
	r := rec(t0.Add(time.Minute), memberMAC200, blackholeMAC, 0x50000001, victim.Addr, 389, 4444, 17)
	observe(p, r)
	if p.AttributedRecords != 0 || p.Align.Estimate(50*time.Millisecond).BestOverlap != 0 {
		t.Fatal("a record was attributed before any event")
	}
	m.Extend(testUpdates())
	p.Events = m.Events()
	observe(p, r)
	if p.AttributedRecords != 1 {
		t.Fatalf("%d records attributed after the view gained an event on %v, want 1", p.AttributedRecords, victim)
	}
	if got := p.Align.Estimate(50 * time.Millisecond).BestOverlap; got != 0.5 {
		t.Fatalf("time alignment overlap %v after the view gained the episode, want 0.5 (one of two drops)", got)
	}
}
