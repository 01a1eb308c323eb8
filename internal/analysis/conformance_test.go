package analysis_test

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/collateral"
	"repro/internal/analysis/cowtest"
	"repro/internal/analysis/dropstats"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/protomix"
	"repro/internal/analysis/timealign"
	"repro/internal/bgp"
)

// The operator-contract conformance suite. Every registered operator
// (the analysis.Operator implementations the pipeline composes) must
// satisfy five properties the engine relies on:
//
//	(a) merging over any split of the observation stream produces the
//	    same state as a sequential pass (federation);
//	(b) Merge is associative across three-way splits (merge trees);
//	(c) Snapshot is an independent copy — neither side sees the other's
//	    subsequent observations (copy-on-snapshot in the online path),
//	    however many snapshots, snapshots of snapshots and merges of
//	    snapshots are alive at once (three operators share state with
//	    their snapshots until one side writes it; analysis.Cow);
//	(d) the wire codec round-trips: Marshal → Unmarshal → Marshal is
//	    byte-identical (federation snapshots are state fingerprints);
//	(e) decoding replaces the whole state, run memos included: an
//	    instance that observed before decoding observes afterwards like
//	    a fresh decode.
//
// State equality is compared through MarshalBinary, whose canonical
// (sorted) encodings are exactly the fingerprint property (d) asserts.

// handle wraps one operator instance behind the uniform surface the
// conformance properties drive. self holds the concrete aggregator for
// the merge type assertion.
type handle struct {
	self      any
	feed      func(i int)
	merge     func(o *handle)
	snapshot  func() *handle
	marshal   func() ([]byte, error)
	unmarshal func(data []byte) (*handle, error) // into a fresh instance
	decode    func(data []byte) error            // into this instance: its own UnmarshalBinary or UnmarshalEvents
}

// conformanceEvents is the event count the event-keyed operators decode
// under: their streams use event IDs 0..4.
const conformanceEvents = 5

// operatorCase is one registered operator plus its deterministic
// observation stream. Stream lengths stay well below every bounded
// structure's capacity (BoundedSet, TopCounter, the per-event AS caps),
// where the aggregates are exact and split-invariant.
type operatorCase struct {
	name   string
	stream int
	fresh  func() *handle
}

func conformanceBase() time.Time {
	return time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
}

// conformanceIndex builds a small event structure for the operators
// that attribute against one: two prefixes, three episodes.
func conformanceIndex() (*events.Index, time.Time) {
	base := conformanceBase()
	end := base.Add(48 * time.Hour)
	p24 := bgp.MakePrefix(0x0a000000, 24) // 10.0.0.0/24
	p32 := bgp.MakePrefix(0x0a000007, 32) // 10.0.0.7/32
	ups := []analysis.ControlUpdate{
		{Time: base.Add(1 * time.Hour), Peer: 65001, Prefix: p24, Announce: true, OriginAS: 65100},
		{Time: base.Add(2 * time.Hour), Peer: 65001, Prefix: p24, Announce: false, OriginAS: 65100},
		{Time: base.Add(3 * time.Hour), Peer: 65001, Prefix: p32, Announce: true, OriginAS: 65100},
		{Time: base.Add(4 * time.Hour), Peer: 65001, Prefix: p32, Announce: false, OriginAS: 65100},
		{Time: base.Add(30 * time.Hour), Peer: 65002, Prefix: p32, Announce: true, OriginAS: 65101},
		{Time: base.Add(31 * time.Hour), Peer: 65002, Prefix: p32, Announce: false, OriginAS: 65101},
	}
	analysis.SortUpdates(ups)
	evs := events.Merge(ups, events.DefaultDelta, end)
	return events.NewIndex(evs, end), end
}

func dropstatsCase() operatorCase {
	var wrap func(a *dropstats.Aggregator) *handle
	wrap = func(a *dropstats.Aggregator) *handle {
		h := &handle{self: a}
		h.feed = func(i int) {
			a.Add(i%5, uint8(22+i%11), uint32(64500+i%4), i%3 == 0, int64(1+i%4), int64(40+16*(i%7)))
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*dropstats.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = func(data []byte) error { return a.UnmarshalEvents(data, conformanceEvents) }
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := dropstats.New()
			if err := d.UnmarshalEvents(data, conformanceEvents); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "dropstats", stream: 64, fresh: func() *handle { return wrap(dropstats.New()) }}
}

func anomalyCase() operatorCase {
	base := conformanceBase()
	var wrap func(a *anomaly.Aggregator) *handle
	wrap = func(a *anomaly.Aggregator) *handle {
		h := &handle{self: a}
		h.feed = func(i int) {
			prefix := bgp.MakePrefix(0x0a000000+uint32(i%2)<<8, 24)
			t := base.Add(time.Duration(i%9) * 5 * time.Minute)
			a.Add(prefix, t, 0xc0a80000+uint32(i%6), uint16(1024+i), uint16(i%5), uint8(6+11*(i%2)), int64(1+i%3))
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*anomaly.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = a.UnmarshalBinary
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := anomaly.New()
			if err := d.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "anomaly", stream: 48, fresh: func() *handle { return wrap(anomaly.New()) }}
}

func protomixCase() operatorCase {
	var wrap func(a *protomix.Aggregator) *handle
	wrap = func(a *protomix.Aggregator) *handle {
		h := &handle{self: a}
		h.feed = func(i int) {
			proto := []uint8{6, 17, 1, 17}[i%4]
			srcPort := uint16([]int{123, 53, 80, 11211}[i%4])
			a.Add(i%4, proto, 0xac100000+uint32(i%8), srcPort, int64(1+i%5), uint32(65100+i%3), uint32(64500+i%3))
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*protomix.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = func(data []byte) error { return a.UnmarshalEvents(data, conformanceEvents) }
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := protomix.New()
			if err := d.UnmarshalEvents(data, conformanceEvents); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "protomix", stream: 56, fresh: func() *handle { return wrap(protomix.New()) }}
}

func hostsCase() operatorCase {
	var wrap func(a *hosts.Aggregator) *handle
	wrap = func(a *hosts.Aggregator) *handle {
		h := &handle{self: a}
		h.feed = func(i int) {
			ip := 0x0a000001 + uint32(i%3)
			day := int32(i % 23)
			if i%2 == 0 {
				a.AddIncoming(ip, day, uint16(40000+i%9), uint16(443+i%3), 6, int64(1+i%2))
			} else {
				a.AddOutgoing(ip, day, uint16(443+i%3), uint16(50000+i%9), 6, 1)
			}
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*hosts.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = a.UnmarshalBinary
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := hosts.New()
			if err := d.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "hosts", stream: 72, fresh: func() *handle { return wrap(hosts.New()) }}
}

func timealignCase() operatorCase {
	ix, _ := conformanceIndex()
	base := conformanceBase()
	var wrap func(a *timealign.Aggregator) *handle
	wrap = func(a *timealign.Aggregator) *handle {
		h := &handle{self: a}
		cur := events.NewCursor(ix) // the caller's cursor, as the pipeline's align feed keeps one
		h.feed = func(i int) {
			// Drops near the three episodes, some outside any episode.
			hour := []time.Duration{1, 3, 30, 10}[i%4]
			t := base.Add(hour*time.Hour + time.Duration(i%7)*13*time.Second)
			a.AddDropped(cur, 0x0a000000+uint32(i%12), t)
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*timealign.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = a.UnmarshalBinary
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := timealign.New()
			if err := d.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "timealign", stream: 40, fresh: func() *handle { return wrap(timealign.New()) }}
}

func pendingCase() operatorCase {
	var wrap func(p *collateral.Pending) *handle
	wrap = func(p *collateral.Pending) *handle {
		h := &handle{self: p}
		h.feed = func(i int) {
			// Every 16th cell holds more packets than a slot's count byte
			// can, and the one before it a negative count (as only a
			// decoded state does): both live in the table's spill map.
			pkts := int64(1 + i%4)
			switch i % 16 {
			case 0:
				pkts = 40
			case 15:
				pkts = -2
			}
			p.Add(i%5, 0x0a000001+uint32(i%6), uint16(1+i%9), uint8(6+11*(i%2)), i%3 == 0, pkts)
		}
		h.merge = func(o *handle) { p.Merge(o.self.(*collateral.Pending)) }
		h.marshal = p.MarshalBinary
		h.decode = func(data []byte) error { return p.UnmarshalEvents(data, conformanceEvents) }
		h.snapshot = func() *handle { return wrap(p.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := collateral.NewPending()
			if err := d.UnmarshalEvents(data, conformanceEvents); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "collateral-pending", stream: 64, fresh: func() *handle { return wrap(collateral.NewPending()) }}
}

func mitigationCase() operatorCase {
	var wrap func(a *mitigation.Aggregator) *handle
	wrap = func(a *mitigation.Aggregator) *handle {
		h := &handle{self: a}
		h.feed = func(i int) {
			prefix := bgp.MakePrefix(0x0a000000+uint32(i%3)<<8, []uint8{24, 32, 25}[i%3])
			phase := mitigation.Phase(i % 2)
			// Alternate amplification source ports (NTP, DNS) with plain
			// ports so both the attack and legitimate cells fill.
			proto := []uint8{17, 17, 6, 17}[i%4]
			srcPort := uint16([]int{123, 53, 443, 40000}[i%4])
			a.Add(prefix, phase, proto, srcPort, i%3 != 0, int64(1+i%4), int64(80+120*(i%5)))
		}
		h.merge = func(o *handle) { a.Merge(o.self.(*mitigation.Aggregator)) }
		h.marshal = a.MarshalBinary
		h.decode = a.UnmarshalBinary
		h.snapshot = func() *handle { return wrap(a.Snapshot()) }
		h.unmarshal = func(data []byte) (*handle, error) {
			d := mitigation.New()
			if err := d.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return wrap(d), nil
		}
		return h
	}
	return operatorCase{name: "mitigation", stream: 60, fresh: func() *handle { return wrap(mitigation.New()) }}
}

// operatorCases registers the seven operators whose snapshots
// Pipeline.MarshalState writes, in section order.
func operatorCases() []operatorCase {
	return []operatorCase{
		dropstatsCase(),
		anomalyCase(),
		protomixCase(),
		hostsCase(),
		timealignCase(),
		pendingCase(),
		mitigationCase(),
	}
}

func mustMarshal(t *testing.T, h *handle) []byte {
	t.Helper()
	data, err := h.marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// feedRange feeds observations [lo, hi) of the deterministic stream.
func feedRange(h *handle, lo, hi int) {
	for i := lo; i < hi; i++ {
		h.feed(i)
	}
}

// TestOperatorMergeSplitParity: property (a). testing/quick draws the
// split points; every split of the stream, merged, must fingerprint
// identically to the sequential pass.
func TestOperatorMergeSplitParity(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := c.fresh()
			feedRange(seq, 0, c.stream)
			want := mustMarshal(t, seq)

			prop := func(split uint16) bool {
				k := int(split) % (c.stream + 1)
				a, b := c.fresh(), c.fresh()
				feedRange(a, 0, k)
				feedRange(b, k, c.stream)
				a.merge(b)
				got, err := a.marshal()
				return err == nil && bytes.Equal(got, want)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("split merge diverges from sequential: %v", err)
			}
		})
	}
}

// TestOperatorMergeAssociativity: property (b). For quick-drawn cut
// points i <= j, ((P1+P2)+P3) and (P1+(P2+P3)) must both fingerprint
// identically to the sequential pass.
func TestOperatorMergeAssociativity(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := c.fresh()
			feedRange(seq, 0, c.stream)
			want := mustMarshal(t, seq)

			parts := func(i, j int) (*handle, *handle, *handle) {
				p1, p2, p3 := c.fresh(), c.fresh(), c.fresh()
				feedRange(p1, 0, i)
				feedRange(p2, i, j)
				feedRange(p3, j, c.stream)
				return p1, p2, p3
			}
			prop := func(x, y uint16) bool {
				i := int(x) % (c.stream + 1)
				j := i + int(y)%(c.stream-i+1)

				l1, l2, l3 := parts(i, j)
				l1.merge(l2)
				l1.merge(l3)
				left, err := l1.marshal()
				if err != nil || !bytes.Equal(left, want) {
					return false
				}
				r1, r2, r3 := parts(i, j)
				r2.merge(r3)
				r1.merge(r2)
				right, err := r1.marshal()
				return err == nil && bytes.Equal(right, want)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("three-way merge not associative: %v", err)
			}
		})
	}
}

// TestOperatorSnapshotIsolation: property (c). A snapshot taken halfway
// must be unaffected by further observations on the original, and
// observations on the snapshot must not leak back.
func TestOperatorSnapshotIsolation(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			half := c.stream / 2

			a := c.fresh()
			feedRange(a, 0, half)
			atHalf := mustMarshal(t, a)

			snap := a.snapshot()
			if got := mustMarshal(t, snap); !bytes.Equal(got, atHalf) {
				t.Fatal("snapshot does not fingerprint like its origin")
			}
			feedRange(a, half, c.stream)
			if got := mustMarshal(t, snap); !bytes.Equal(got, atHalf) {
				t.Error("observations on the original leaked into the snapshot")
			}

			b := c.fresh()
			feedRange(b, 0, half)
			keep := b.snapshot()
			feedRange(b, half, c.stream) // mutate through the snapshot's sibling
			full := mustMarshal(t, b)
			feedRange(keep, half, c.stream)
			if got := mustMarshal(t, keep); !bytes.Equal(got, full) {
				t.Error("snapshot fed the remaining stream diverges from the sequential pass")
			}
			seq := c.fresh()
			feedRange(seq, 0, c.stream)
			if got := mustMarshal(t, seq); !bytes.Equal(got, full) {
				t.Error("original diverged after its snapshot observed independently")
			}
		})
	}
}

// The handle as a cowtest.Store. UnmarshalBinary rebinds the handle to a
// freshly decoded operator.
func (h *handle) Merge(o *handle)                { h.merge(o) }
func (h *handle) Snapshot() *handle              { return h.snapshot() }
func (h *handle) MarshalBinary() ([]byte, error) { return h.marshal() }
func (h *handle) UnmarshalBinary(data []byte) error {
	d, err := h.unmarshal(data)
	if err == nil {
		*h = *d
	}
	return err
}

// TestOperatorSnapshotSequences: property (c) over whole populations. A
// single snapshot survives most ownership bugs of a store that shares
// state with its snapshots, so every operator also walks cowtest's random
// sequences — interleaved observations on an original and several live
// snapshots, snapshots of snapshots, merges of and into snapshotted
// stores, decoding over a snapshotted store — against a reference whose
// copies go through the wire codec and therefore share nothing. (The
// streams stay below every bounded structure's capacity, where a decoded
// copy behaves exactly like the state it was encoded from. The three
// sharing operators are driven past capacity, and through Filter and
// RemapEvents, against their in-memory deep-copy models in their own
// packages: TestSnapshotMatchesDeepCopy, TestPendingSnapshotMatchesDeepCopy.)
func TestOperatorSnapshotSequences(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				cowtest.Run(t, seed, 150, cowtest.Case[*handle]{
					New: c.fresh,
					Deep: func(h *handle) *handle {
						d, err := h.unmarshal(mustMarshal(t, h))
						if err != nil {
							t.Fatalf("unmarshal: %v", err)
						}
						return d
					},
					Add:    func(h *handle, x uint64) { h.feed(int(x % uint64(c.stream))) },
					Decode: (*handle).UnmarshalBinary,
				})
			}
		})
	}
}

// TestOperatorWireRoundTrip: property (d). Marshal → Unmarshal →
// Marshal must be a byte-level fixed point, and the decoded state must
// snapshot into the same fingerprint.
func TestOperatorWireRoundTrip(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, n := range []int{0, 1, c.stream / 2, c.stream} {
				a := c.fresh()
				feedRange(a, 0, n)
				data := mustMarshal(t, a)

				dec, err := a.unmarshal(data)
				if err != nil {
					t.Fatalf("unmarshal after %d observations: %v", n, err)
				}
				if got := mustMarshal(t, dec); !bytes.Equal(got, data) {
					t.Errorf("re-marshal after %d observations is not a fixed point", n)
				}
				if snap := dec.snapshot(); snap != nil {
					if got := mustMarshal(t, snap); !bytes.Equal(got, data) {
						t.Errorf("decoded snapshot after %d observations diverges", n)
					}
				}
			}

			// Corrupt inputs must error, never panic: truncations of a
			// valid encoding and a version bump.
			a := c.fresh()
			feedRange(a, 0, c.stream)
			data := mustMarshal(t, a)
			for cut := 0; cut < len(data); cut++ {
				if _, err := a.unmarshal(data[:cut]); err == nil {
					t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(data))
				}
			}
			bumped := append([]byte(nil), data...)
			bumped[0]++
			if _, err := a.unmarshal(bumped); err == nil {
				t.Error("future codec version decoded without error")
			}
		})
	}
}

// TestOperatorDecodeIntoUsed: property (e). For every cut j, one instance
// observes [0, j) and then decodes the encoding of that same prefix into
// itself; a fresh instance decodes it too. Both observe record j-1 again
// and then [j, stream) and must fingerprint identically. Re-observing j-1
// is what a run memo left pointing into the replaced state would catch:
// it matches the memo's key, and the write lands outside the decoded
// state.
func TestOperatorDecodeIntoUsed(t *testing.T) {
	for _, c := range operatorCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for j := 1; j <= c.stream; j++ {
				used := c.fresh()
				feedRange(used, 0, j)
				data := mustMarshal(t, used)
				if err := used.decode(data); err != nil {
					t.Fatalf("decode into the instance after %d observations: %v", j, err)
				}
				dec, err := c.fresh().unmarshal(data)
				if err != nil {
					t.Fatalf("unmarshal after %d observations: %v", j, err)
				}
				for _, h := range []*handle{used, dec} {
					h.feed(j - 1)
					feedRange(h, j, c.stream)
				}
				if !bytes.Equal(mustMarshal(t, used), mustMarshal(t, dec)) {
					t.Fatalf("decoded over %d observations, then fed on: diverges from a fresh decode", j)
				}
			}
		})
	}
}
