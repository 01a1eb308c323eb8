package pipeline

import (
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
	"repro/internal/analysis/protomix"
	"repro/internal/analysis/timealign"
	"repro/internal/bgp"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The parity fixture: several blackholed prefixes of different lengths
// (so the shard key uses a real minLen), repeated episodes, and two
// announcing peers.
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

// parityStream synthesizes a deterministic flow archive covering every
// pipeline path: internal records, dropped and forwarded attack traffic
// during events, pre-event bursts (anomaly window), multi-day legitimate
// traffic in both directions (host profiling), source-blackholed records,
// and unattributable noise.
func parityStream(n int) []ipfix.FlowRecord {
	r := stats.NewRNG(0xD15EA5E)
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

// TestParallelParity is the determinism guarantee of the sharded runner:
// for every worker count the merged state matches the sequential pipeline
// exactly, down to bounded-structure saturation behaviour.
func TestParallelParity(t *testing.T) {
	recs := parityStream(30000)
	src := batchSource(chunkBatches(recs, 64)) // many batches per shard

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

	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
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

// TestParallelSourceError verifies a source error aborts the run.
func TestParallelSourceError(t *testing.T) {
	pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, 3)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	bad := BatchSource(func(ipfix.BatchSink) error { return boom })
	if err := pp.RunBatches(bad); err != boom {
		t.Fatalf("RunBatches err = %v, want boom", err)
	}
}

// TestParallelDefaultsWorkers checks the GOMAXPROCS default.
func TestParallelDefaultsWorkers(t *testing.T) {
	pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d, want GOMAXPROCS", pp.Workers())
	}
}

// TestParallelDispatchAccounting reconciles the instrumented runner's
// dispatch metrics with what the dispatcher must have done: the shard
// record counters sum to one destination role per record plus one source
// role per record whose two addresses belong to different shards, and
// workers are busy — and the dispatcher blocked — only while RunBatches
// runs. An uninstrumented runner registers and reads no clock at all
// (obs == nil on every path), which the parity tests above run through.
func TestParallelDispatchAccounting(t *testing.T) {
	recs := parityStream(30000)
	const workers = 3
	pp, err := NewParallel(testMeta(), parityUpdates(), events.DefaultDelta, workers)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pp.Instrument(reg)

	var split int64
	for i := range recs {
		if pp.shardOf(recs[i].DstIP) != pp.shardOf(recs[i].SrcIP) {
			split++
		}
	}
	if split == 0 || split == int64(len(recs)) {
		t.Fatalf("fixture splits %d of %d records; both roles must occur", split, len(recs))
	}

	start := time.Now()
	// Small batches: many chunks per shard, so the 4-deep channels fill.
	if err := pp.RunBatches(batchSource(chunkBatches(recs, 64))); err != nil {
		t.Fatal(err)
	}
	wall := int64(time.Since(start))

	snap := reg.Snapshot()
	if got := snap.Counter("pipeline.dispatch.split_records"); got != split {
		t.Errorf("pipeline.dispatch.split_records = %d, want %d", got, split)
	}
	var sharded, busy int64
	for i := 0; i < workers; i++ {
		sharded += snap.Counter(fmt.Sprintf("pipeline.shard.%02d.records", i))
		b := snap.Gauge(fmt.Sprintf("pipeline.shard.%02d.busy_ns", i))
		if b <= 0 || b > wall {
			t.Errorf("shard %d busy %dns of a %dns run", i, b, wall)
		}
		busy += b
	}
	if want := int64(len(recs)) + split; sharded != want {
		t.Errorf("shard counters sum to %d, want %d destination + %d source roles", sharded, len(recs), split)
	}
	if busy > workers*wall {
		t.Errorf("shards busy %dns in total, more than %d x %dns", busy, workers, wall)
	}
	if blocked := snap.Gauge("pipeline.dispatch.blocked_ns"); blocked < 0 || blocked > wall {
		t.Errorf("dispatcher blocked %dns of a %dns run", blocked, wall)
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
		if m := cur.Lookup(victim.Addr, t0.Add(time.Minute)); !m.Active {
			t.Fatalf("after Rebind: Lookup = %+v, want an active match", m)
		}
	}
	observe(p, rec(t0.Add(time.Minute), memberMAC200, blackholeMAC, 0x50000001, victim.Addr, 389, 4444, 17))
	if p.Align.Estimate(50*time.Millisecond).BestOverlap != 1 {
		t.Fatal("time alignment did not see the rebound index")
	}
}
