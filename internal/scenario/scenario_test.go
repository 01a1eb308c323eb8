package scenario

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ipfix"
)

func TestConfigValidation(t *testing.T) {
	good := TestConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("TestConfig invalid: %v", err)
	}
	dc := DefaultConfig()
	if err := dc.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	bc := BenchConfig()
	if err := bc.Validate(); err != nil {
		t.Fatalf("BenchConfig invalid: %v", err)
	}
	bad := good
	bad.Days = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("Days=1 accepted")
	}
	bad = good
	bad.RTBHUsers = bad.Members + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("RTBHUsers > Members accepted")
	}
	bad = good
	bad.UniqueVictims = bad.EventsTotal + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("UniqueVictims > EventsTotal accepted")
	}
	for _, ts := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad = good
		bad.TrafficScale = ts
		if err := bad.Validate(); err == nil {
			t.Errorf("TrafficScale=%g accepted", ts)
		}
	}
}

// memberASNs returns the set of the world's member ASNs.
func memberASNs(w *World) map[uint32]bool {
	set := make(map[uint32]bool, len(w.Members))
	for _, m := range w.Members {
		set[m.ASN] = true
	}
	return set
}

func planTest(t *testing.T) *World {
	t.Helper()
	w, err := Plan(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPlanDeterministic(t *testing.T) {
	w1 := planTest(t)
	w2 := planTest(t)
	if len(w1.Events) != len(w2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(w1.Events), len(w2.Events))
	}
	for i := range w1.Events {
		a, b := w1.Events[i], w2.Events[i]
		if a.Prefix != b.Prefix || !a.Start().Equal(b.Start()) || a.Class != b.Class {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestPlanPopulationShape(t *testing.T) {
	w := planTest(t)
	cfg := w.Cfg
	if len(w.Members) != cfg.Members {
		t.Fatalf("members = %d", len(w.Members))
	}
	if len(w.Hosts) != cfg.UniqueVictims {
		t.Fatalf("hosts = %d", len(w.Hosts))
	}
	// Event count within 10% of the budget (overlap resolution may drop
	// a few events).
	if len(w.Events) < cfg.EventsTotal*90/100 || len(w.Events) > cfg.EventsTotal+w.SquatPrefix {
		t.Fatalf("events = %d, budget %d", len(w.Events), cfg.EventsTotal)
	}

	classes := map[EventClass]int{}
	for _, e := range w.Events {
		classes[e.Class]++
	}
	total := float64(len(w.Events))
	ddosFrac := float64(classes[ClassDDoS]) / total
	if ddosFrac < 0.25 || ddosFrac > 0.42 {
		t.Fatalf("DDoS fraction = %v, want ~0.33", ddosFrac)
	}
	zombieFrac := float64(classes[ClassZombie]) / total
	if zombieFrac < 0.08 || zombieFrac > 0.19 {
		t.Fatalf("zombie fraction = %v, want ~0.13", zombieFrac)
	}
	if classes[ClassSquatting] < 5 {
		t.Fatalf("squatting events = %d", classes[ClassSquatting])
	}

	kinds := map[HostKind]int{}
	for _, h := range w.Hosts {
		kinds[h.Kind]++
	}
	if kinds[HostQuiet] < len(w.Hosts)/2 {
		t.Fatalf("quiet hosts = %d of %d, want majority", kinds[HostQuiet], len(w.Hosts))
	}
	if kinds[HostServer] == 0 || kinds[HostClient]+kinds[HostGamingClient] == 0 {
		t.Fatal("missing server or client hosts")
	}
	// 4:1 client:server ratio, roughly.
	ratio := float64(kinds[HostClient]+kinds[HostGamingClient]) / float64(kinds[HostServer])
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("client:server ratio = %v, want ~4", ratio)
	}
}

func TestPlanEventInvariants(t *testing.T) {
	w := planTest(t)
	endOfPeriod := w.Cfg.End()
	members := memberASNs(w)
	for _, e := range w.Events {
		if len(e.Episodes) == 0 {
			t.Fatalf("event %d has no episodes", e.ID)
		}
		prev := time.Time{}
		for _, ep := range e.Episodes {
			if !ep.Announce.After(prev) {
				t.Fatalf("event %d episodes not increasing", e.ID)
			}
			if !ep.Withdraw.IsZero() {
				if !ep.Withdraw.After(ep.Announce) {
					t.Fatalf("event %d withdraw before announce", e.ID)
				}
				if ep.Withdraw.After(endOfPeriod) {
					t.Fatalf("event %d withdraw after period end", e.ID)
				}
				prev = ep.Withdraw
			} else {
				prev = endOfPeriod
			}
		}
		if e.Class == ClassDDoS {
			if e.Attack == nil {
				t.Fatalf("DDoS event %d without attack", e.ID)
			}
			if e.Attack.Start.After(e.Start()) {
				t.Fatalf("event %d: attack starts after first announce", e.ID)
			}
			// Reaction latency must be under an hour.
			if lat := e.Start().Sub(e.Attack.Start); lat > time.Hour {
				t.Fatalf("event %d reaction latency %v", e.ID, lat)
			}
		} else if e.Attack != nil {
			t.Fatalf("%s event %d has an attack", e.Class, e.ID)
		}
		if e.Class == ClassSquatting {
			if e.Prefix.Len > 24 {
				t.Fatalf("squatting prefix %v longer than /24", e.Prefix)
			}
			if e.Host != -1 {
				t.Fatalf("squatting event with host")
			}
		}
		if !members[e.Peer] {
			t.Fatalf("event %d peer AS%d is not a member", e.ID, e.Peer)
		}
	}
}

func TestPlanSameHostEventsSeparated(t *testing.T) {
	w := planTest(t)
	lastEnd := map[string]time.Time{}
	for _, e := range w.Events {
		key := e.Prefix.String()
		if last, ok := lastEnd[key]; ok {
			if e.Start().Before(last) {
				t.Fatalf("events on %s overlap: start %v before previous end %v", key, e.Start(), last)
			}
		}
		if end, ok := e.End(); ok {
			if end.After(lastEnd[key]) {
				lastEnd[key] = end
			}
		} else {
			lastEnd[key] = w.Cfg.End()
		}
	}
}

func TestPlanAttackMix(t *testing.T) {
	w := planTest(t)
	protoCounts := map[int]int{}
	nAttacks := 0
	filterable := 0
	for _, e := range w.Events {
		if e.Attack == nil {
			continue
		}
		nAttacks++
		protoCounts[len(e.Attack.Protocols)]++
		if len(e.Attack.Protocols) > 0 && !e.Attack.ExtraRandomPort && !e.Attack.SYNFlood {
			filterable++
		}
	}
	if nAttacks == 0 {
		t.Fatal("no attacks planned")
	}
	// Table 3 shape: 1 and 2 protocols dominate.
	if protoCounts[1]+protoCounts[2] < nAttacks/2 {
		t.Fatalf("1-2 protocol attacks = %d of %d", protoCounts[1]+protoCounts[2], nAttacks)
	}
	// ~90% fully filterable by the port list.
	frac := float64(filterable) / float64(nAttacks)
	if frac < 0.80 || frac > 0.97 {
		t.Fatalf("filterable fraction = %v, want ~0.90", frac)
	}
}

func TestPlanTargetingEpoch(t *testing.T) {
	w := planTest(t)
	epochStart := w.Cfg.Start.AddDate(0, 0, w.Cfg.TargetedEpochStartDay)
	epochEnd := epochStart.AddDate(0, 0, w.Cfg.TargetedEpochDays)
	inEpoch, outEpoch := 0, 0
	for _, e := range w.Events {
		if len(e.TargetedExclude) == 0 {
			continue
		}
		if e.Start().After(epochStart) && e.Start().Before(epochEnd) {
			inEpoch++
		} else {
			outEpoch++
		}
	}
	if inEpoch == 0 {
		t.Fatal("no targeted events during the epoch")
	}
	if outEpoch > inEpoch {
		t.Fatalf("targeted outside epoch (%d) exceeds inside (%d)", outEpoch, inEpoch)
	}
}

func TestPlanRegistries(t *testing.T) {
	w := planTest(t)
	if len(w.PDB.All()) == 0 {
		t.Fatal("empty PeeringDB registry")
	}
	if n := len(w.IP2AS.Entries()); n != len(w.VictimASes)+len(w.RemoteASes) {
		t.Fatalf("ip2as entries = %d", n)
	}
	// Every host resolves to its victim AS.
	for _, h := range w.Hosts[:50] {
		asn, ok := w.IP2AS.Lookup(h.IP)
		if !ok || asn != w.VictimASes[h.VictimAS].ASN {
			t.Fatalf("host %x resolves to %d, want %d", h.IP, asn, w.VictimASes[h.VictimAS].ASN)
		}
	}
	// Top remote AS is a member (top origin == top handover).
	if w.RemoteASes[0].ASN != w.Members[0].ASN || w.RemoteASes[0].Handover != w.Members[0].ASN {
		t.Fatalf("top remote AS not the designated member: %+v", w.RemoteASes[0])
	}
}

func TestSplitBatch(t *testing.T) {
	b := fabric.Batch{
		Time:       time.Unix(0, 0),
		Duration:   100 * time.Second,
		Packets:    1000,
		PacketSize: 100,
	}
	sec := int64(time.Second)
	out := splitBatch(nil, &b, transitions{25 * sec, 50 * sec, 200 * sec})
	if len(out) != 3 {
		t.Fatalf("segments = %d, want 3", len(out))
	}
	var total int64
	for _, s := range out {
		total += s.Packets
		if s.Duration <= 0 {
			t.Fatalf("segment with non-positive duration: %+v", s)
		}
	}
	if total != 1000 {
		t.Fatalf("packets not conserved: %d", total)
	}
	if out[0].Packets != 250 || out[1].Packets != 250 || out[2].Packets != 500 {
		t.Fatalf("split = %d/%d/%d", out[0].Packets, out[1].Packets, out[2].Packets)
	}
	// No cuts: unchanged.
	out = splitBatch(nil, &b, transitions{500 * sec})
	if len(out) != 1 || out[0].Packets != 1000 {
		t.Fatalf("no-cut split = %+v", out)
	}
}

// runOne runs w on the single exchange its config plans and returns that
// exchange with what Drive counted.
func runOne(t *testing.T, w *World, sinks Sinks) (*Exchange, *DriveStats) {
	t.Helper()
	xs, st, err := RunFederated(PlanFederation(w), []Sinks{sinks}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return xs[0], st
}

func runSmall(t *testing.T) (*World, *Exchange, *DriveStats, []ipfix.FlowRecord, []controlArchive) {
	t.Helper()
	cfg := TestConfig()
	cfg.Days = 14
	cfg.EventsTotal = 400
	cfg.UniqueVictims = 200
	cfg.Members = 80
	cfg.RTBHUsers = 15
	cfg.VictimOriginASes = 20
	cfg.RemoteOriginASes = 300
	w, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var flows []ipfix.FlowRecord
	var msgs []controlArchive
	x, st := runOne(t, w, Sinks{
		Control: func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
			msgs = append(msgs, controlArchive{ts, peerAS, len(msg)})
		},
		Flow: func(b *ipfix.RecordBatch) error {
			flows = append(flows, b.Recs...)
			return nil
		},
	})
	return w, x, st, flows, msgs
}

type controlArchive struct {
	ts     time.Time
	peerAS uint32
	n      int
}

func TestRunEndToEnd(t *testing.T) {
	w, x, ds, flows, msgs := runSmall(t)

	if ds.Announcements == 0 || ds.Withdrawals == 0 {
		t.Fatalf("control plane empty: %+v", ds)
	}
	if ds.Announcements < len(w.Events) {
		t.Fatalf("announcements (%d) below event count (%d)", ds.Announcements, len(w.Events))
	}
	if n := x.RS.MessagesProcessed(); len(msgs) != n {
		t.Fatalf("collector saw %d messages, server processed %d", len(msgs), n)
	}
	if len(flows) == 0 {
		t.Fatal("no flow records")
	}
	if x.FlowRecords != int64(len(flows)) {
		t.Fatalf("record counters disagree: %d vs %d", x.FlowRecords, len(flows))
	}

	// Some traffic must be dropped (blackholed), some forwarded.
	dropped, internal := 0, 0
	for _, f := range flows {
		switch f.DstMAC {
		case fabric.BlackholeMAC:
			dropped++
		case fabric.InternalMAC:
			internal++
		}
	}
	if dropped == 0 {
		t.Fatal("no dropped records")
	}
	if dropped == len(flows) {
		t.Fatal("everything dropped")
	}
	if internal == 0 {
		t.Fatal("no internal records to clean")
	}

	st := x.FB.Stats()
	if st.PacketsDropped == 0 || st.PacketsDropped >= st.PacketsIn {
		t.Fatalf("fabric stats implausible: %+v", st)
	}
}

func TestRunDeterministic(t *testing.T) {
	_, x1, st1, flows1, _ := runSmall(t)
	_, x2, st2, flows2, _ := runSmall(t)
	if x1.FlowRecords != x2.FlowRecords || st1.Announcements != st2.Announcements {
		t.Fatalf("runs differ: %d records, %+v vs %d records, %+v", x1.FlowRecords, st1, x2.FlowRecords, st2)
	}
	for i := range flows1 {
		if flows1[i] != flows2[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestRunControlChronological(t *testing.T) {
	_, _, _, _, msgs := runSmall(t)
	for i := 1; i < len(msgs); i++ {
		if msgs[i].ts.Before(msgs[i-1].ts) {
			t.Fatalf("control messages out of order at %d", i)
		}
	}
}

func TestRunClockOffsetVisible(t *testing.T) {
	// With a huge configured offset the flow timestamps must shift.
	cfg := TestConfig()
	cfg.Days = 5
	cfg.EventsTotal = 60
	cfg.UniqueVictims = 30
	cfg.Members = 40
	cfg.RTBHUsers = 8
	cfg.VictimOriginASes = 10
	cfg.RemoteOriginASes = 100
	cfg.ClockOffset = -30 * time.Hour // absurd on purpose
	w, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	earliest := time.Time{}
	runOne(t, w, Sinks{Flow: func(b *ipfix.RecordBatch) error {
		for _, r := range b.Recs {
			if earliest.IsZero() || r.Start.Before(earliest) {
				earliest = r.Start
			}
		}
		return nil
	}})
	if !earliest.Before(cfg.Start) {
		t.Fatalf("clock offset not applied: earliest sample %v", earliest)
	}
}

func TestTruthSummary(t *testing.T) {
	w := planTest(t)
	gt := Truth(w)
	if len(gt.Events) != len(w.Events) {
		t.Fatalf("truth events = %d", len(gt.Events))
	}
	if len(gt.Members) != len(w.Members) {
		t.Fatalf("truth members = %d", len(gt.Members))
	}
	if gt.ClassCounts["ddos"] == 0 || gt.ClassCounts["zombie"] == 0 {
		t.Fatalf("class counts = %v", gt.ClassCounts)
	}
	sum := 0
	for _, c := range gt.ClassCounts {
		sum += c
	}
	if sum != len(w.Events) {
		t.Fatalf("class counts sum to %d, events %d", sum, len(w.Events))
	}
}

func TestTruthJSONRoundTrip(t *testing.T) {
	w := planTest(t)
	gt := Truth(w)
	var buf bytes.Buffer
	if err := gt.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTruthJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(gt.Events) || got.Seed != gt.Seed {
		t.Fatal("truth round trip mismatch")
	}
}

func TestPlanAcrossSeedsProperty(t *testing.T) {
	// Plan invariants must hold for any seed, not just the default.
	cfg := TestConfig()
	cfg.Days = 12
	cfg.EventsTotal = 200
	cfg.UniqueVictims = 100
	cfg.Members = 60
	cfg.RTBHUsers = 10
	cfg.VictimOriginASes = 15
	cfg.RemoteOriginASes = 150
	for seed := uint64(2); seed < 12; seed++ {
		cfg.Seed = seed
		w, err := Plan(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		endOfPeriod := w.Cfg.End()
		members := memberASNs(w)
		for _, e := range w.Events {
			if len(e.Episodes) == 0 {
				t.Fatalf("seed %d: event without episodes", seed)
			}
			prev := time.Time{}
			for i, ep := range e.Episodes {
				if !ep.Announce.After(prev) {
					t.Fatalf("seed %d: episodes out of order", seed)
				}
				if ep.Withdraw.IsZero() {
					if i != len(e.Episodes)-1 {
						t.Fatalf("seed %d: open episode not last", seed)
					}
					prev = endOfPeriod
				} else {
					if !ep.Withdraw.After(ep.Announce) || ep.Withdraw.After(endOfPeriod) {
						t.Fatalf("seed %d: bad withdraw", seed)
					}
					prev = ep.Withdraw
				}
			}
			if e.Host >= 0 {
				h := w.Hosts[e.Host]
				if !e.Prefix.Contains(h.IP) {
					t.Fatalf("seed %d: event prefix %v does not contain host %x", seed, e.Prefix, h.IP)
				}
			}
			if !members[e.Peer] {
				t.Fatalf("seed %d: event peer not a member", seed)
			}
		}
		// Address plan stays collision-free: every host resolves to its AS.
		for _, h := range w.Hosts[:20] {
			if asn, ok := w.IP2AS.Lookup(h.IP); !ok || asn != w.VictimASes[h.VictimAS].ASN {
				t.Fatalf("seed %d: host attribution broken", seed)
			}
		}
	}
}

func TestRunAcrossSeedsSanity(t *testing.T) {
	// Short runs across seeds: the engine must stay consistent (no control
	// errors, plausible drop shares).
	cfg := TestConfig()
	cfg.Days = 8
	cfg.EventsTotal = 120
	cfg.UniqueVictims = 60
	cfg.Members = 40
	cfg.RTBHUsers = 8
	cfg.VictimOriginASes = 10
	cfg.RemoteOriginASes = 80
	for seed := uint64(3); seed < 6; seed++ {
		cfg.Seed = seed
		w, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		x, ds := runOne(t, w, Sinks{Flow: func(b *ipfix.RecordBatch) error { n += int64(b.Len()); return nil }})
		if n == 0 || ds.Announcements == 0 {
			t.Fatalf("seed %d: empty run", seed)
		}
		st := x.FB.Stats()
		if st.PacketsDropped <= 0 || st.PacketsDropped >= st.PacketsIn {
			t.Fatalf("seed %d: implausible drops %+v", seed, st)
		}
	}
}
