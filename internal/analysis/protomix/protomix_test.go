package protomix

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/netgen"
)

func TestSharesUDPDominant(t *testing.T) {
	a := New()
	for i := 0; i < 995; i++ {
		a.Add(1, netgen.ProtoUDP, uint32(i), 389, 1, 500, 100)
	}
	for i := 0; i < 3; i++ {
		a.Add(1, netgen.ProtoTCP, uint32(i), 40000, 1, 0, 100)
	}
	a.Add(1, netgen.ProtoICMP, 1, 0, 1, 0, 100)
	a.Add(1, 47, 1, 0, 1, 0, 100) // GRE -> other

	s := a.Shares([]int{1})
	if math.Abs(s.UDP-0.995) > 1e-9 || s.Packets != 1000 {
		t.Fatalf("shares = %+v", s)
	}
	if s.TCP <= 0 || s.ICMP <= 0 || s.Other <= 0 {
		t.Fatalf("minor shares zero: %+v", s)
	}
	// Missing events are skipped.
	if s2 := a.Shares([]int{1, 999}); s2.Packets != 1000 {
		t.Fatalf("missing event changed totals: %+v", s2)
	}
}

func TestProtocolCountDist(t *testing.T) {
	a := New()
	// Event 1: two protocols (NTP + DNS).
	for i := 0; i < 100; i++ {
		a.Add(1, netgen.ProtoUDP, uint32(i), 123, 1, 500, 100)
		a.Add(1, netgen.ProtoUDP, uint32(i), 53, 1, 500, 100)
	}
	// Event 2: one protocol plus a single stray packet on another port
	// (the 2% noise floor must suppress it).
	for i := 0; i < 100; i++ {
		a.Add(2, netgen.ProtoUDP, uint32(i), 11211, 1, 500, 100)
	}
	a.Add(2, netgen.ProtoUDP, 7, 19, 1, 500, 100)
	// Event 3: no amplification traffic at all.
	for i := 0; i < 50; i++ {
		a.Add(3, netgen.ProtoUDP, uint32(i), 40000, 1, 0, 100)
	}

	dist, counted := a.ProtocolCountDist([]int{1, 2, 3})
	if counted != 3 {
		t.Fatalf("counted = %d", counted)
	}
	if math.Abs(dist[2]-1.0/3) > 1e-9 || math.Abs(dist[1]-1.0/3) > 1e-9 || math.Abs(dist[0]-1.0/3) > 1e-9 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestFilterableShares(t *testing.T) {
	a := New()
	// Event 1: 100% amplification -> fully filterable.
	for i := 0; i < 100; i++ {
		a.Add(1, netgen.ProtoUDP, uint32(i), 389, 1, 500, 100)
	}
	// Event 2: half random-port UDP.
	for i := 0; i < 50; i++ {
		a.Add(2, netgen.ProtoUDP, uint32(i), 123, 1, 500, 100)
		a.Add(2, netgen.ProtoUDP, uint32(i), 40000, 1, 0, 100)
	}
	shares := a.FilterableShares([]int{1, 2})
	if len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}
	if math.Abs(shares[0]-0.5) > 1e-9 || shares[1] != 1.0 {
		t.Fatalf("shares = %v", shares)
	}
	if got := a.FullyFilterableShare([]int{1, 2}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("fully filterable = %v", got)
	}
}

func TestParticipationSkew(t *testing.T) {
	a := New()
	// AS 9000 participates in all 10 events; others once each.
	var ids []int
	for ev := 0; ev < 10; ev++ {
		ids = append(ids, ev)
		a.Add(ev, netgen.ProtoUDP, uint32(ev*100), 123, 1, 9000, 500)
		a.Add(ev, netgen.ProtoUDP, uint32(ev*100+1), 123, 1, uint32(100+ev), uint32(600+ev))
	}
	p := a.OriginParticipation(ids)
	if p.ASes != 11 {
		t.Fatalf("origin ASes = %d", p.ASes)
	}
	if p.TopAS != 9000 || p.Top10[0] != 1.0 {
		t.Fatalf("top AS = %d share %v", p.TopAS, p.Top10)
	}
	// CDF sorted ascending, last element is the top share.
	if p.Shares[len(p.Shares)-1] != 1.0 || p.Shares[0] != 0.1 {
		t.Fatalf("shares = %v", p.Shares)
	}
	h := a.HandoverParticipation(ids)
	if h.ASes != 11 { // 500 in all events, 600..609 once each
		t.Fatalf("handover ASes = %d", h.ASes)
	}
}

func TestParticipationIgnoresUnresolvedSources(t *testing.T) {
	a := New()
	a.Add(1, netgen.ProtoUDP, 1, 123, 1, 0, 0) // spoofed: no origin, no member
	p := a.OriginParticipation([]int{1})
	if p.ASes != 0 {
		t.Fatalf("unresolved source counted: %+v", p)
	}
}

func TestScale(t *testing.T) {
	a := New()
	for i := 0; i < 300; i++ {
		a.Add(1, netgen.ProtoUDP, uint32(i), 123, 1, uint32(100+i%30), uint32(600+i%10))
	}
	s := a.Scale([]int{1})
	if s.Events != 1 {
		t.Fatalf("events = %d", s.Events)
	}
	if s.MeanAmplifiers < 290 || s.MeanAmplifiers > 310 {
		t.Fatalf("amplifiers = %v", s.MeanAmplifiers)
	}
	if s.MeanOriginASes != 30 || s.MeanHandoverASes != 10 {
		t.Fatalf("scale = %+v", s)
	}
}

// TestASSetsKeepTheirCap checks the per-event AS sets past growth and at
// their bound: distinct ASes count once each up to maxASesPerEvent, by Add
// and by Merge alike.
func TestASSetsKeepTheirCap(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < maxASesPerEvent+500; i++ {
		a.Add(1, netgen.ProtoUDP, uint32(i), 123, 1, uint32(1+i), uint32(1+i%7))
		a.Add(1, netgen.ProtoUDP, uint32(i), 123, 1, uint32(1+i), uint32(1+i%7)) // repeats count once
		b.Add(2, netgen.ProtoUDP, uint32(i), 53, 1, uint32(1+i%3000), 9)
	}
	b.Add(1, netgen.ProtoUDP, 1, 53, 1, 1<<30, 8)
	if s := a.Scale([]int{1}); s.MeanOriginASes != maxASesPerEvent || s.MeanHandoverASes != 7 {
		t.Fatalf("after Add: %v origin and %v handover ASes, want %d and 7", s.MeanOriginASes, s.MeanHandoverASes, maxASesPerEvent)
	}
	if s := b.Scale([]int{2}); s.MeanOriginASes != 3000 {
		t.Fatalf("after Add: %v origin ASes, want 3000", s.MeanOriginASes)
	}
	a.Merge(b)
	if s := a.Scale([]int{1}); s.MeanOriginASes != maxASesPerEvent || s.MeanHandoverASes != 8 {
		t.Fatalf("after Merge into a full set: %v origin and %v handover ASes, want %d and 8", s.MeanOriginASes, s.MeanHandoverASes, maxASesPerEvent)
	}
}

// encodeEvent is one event's encoding with one amplification port and
// one origin AS, written field by field.
func encodeEvent(port uint16, originAS uint32) []byte {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Uvarint(1) // events
	w.Uvarint(7) // event ID
	for i := 0; i < 5; i++ {
		w.Varint(1) // udp, tcp, icmp, other, nonAmpUDP
	}
	w.Uvarint(1)
	w.Uvarint(uint64(port))
	w.Varint(1)
	analysis.NewBoundedSet(4096).EncodeWire(w)
	w.Uvarint(1)
	w.Uvarint(uint64(originAS))
	w.Uvarint(0) // handover ASes
	return w.Bytes()
}

// TestUnmarshalRejectsWhatAddCannotWrite: the counters are indexed by the
// amplification catalog and the AS sets use 0 as their free slot, so a
// port outside the catalog and AS 0 are errors, not state.
func TestUnmarshalRejectsWhatAddCannotWrite(t *testing.T) {
	valid := encodeEvent(123, 100)
	a := New()
	if err := a.UnmarshalEvents(valid, 8); err != nil {
		t.Fatal(err)
	}
	if out, _ := a.MarshalBinary(); !bytes.Equal(out, valid) {
		t.Fatalf("re-encoding differs:\n in %x\nout %x", valid, out)
	}
	for name, data := range map[string][]byte{
		"port outside the catalog": encodeEvent(40000, 100),
		"AS 0":                     encodeEvent(123, 0),
	} {
		if err := New().UnmarshalEvents(data, 8); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if err := New().UnmarshalEvents(valid, 7); err == nil {
		t.Error("event 7 of an exchange with 7 events decoded without error")
	}
}
