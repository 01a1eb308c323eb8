package pipeline

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/analysis/mitigation"
)

// seedStates builds a spread of valid MarshalState encodings to seed
// the fuzzer: an empty pipeline, a populated speculative one, and the
// same state finalized — so mutations start from every codec branch
// (zero counts, pair tallies present/absent, populated operator blobs).
func seedStates(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(p *Pipeline) {
		data, err := p.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}

	empty, err := New(testMeta(), testUpdates(), events.DefaultDelta)
	if err != nil {
		f.Fatal(err)
	}
	add(empty)

	populated, err := New(testMeta(), testUpdates(), events.DefaultDelta)
	if err != nil {
		f.Fatal(err)
	}
	populated.speculative = true
	observe(populated, rec(t0.Add(10*time.Minute), memberMAC200, blackholeMAC,
		0x50000001, victim.Addr, 389, 44444, 17))
	observe(populated, rec(t0.Add(11*time.Minute), memberMAC200, memberMAC100,
		0x50000002, victim.Addr, 389, 44445, 17))
	observe(populated, rec(t0.Add(12*time.Minute), memberMAC100, memberMAC200,
		victim.Addr, 0x50000001, 44444, 389, 17))
	// Populate the mitigation blob too, so the seventh snapshot section
	// starts from a non-empty encoding as well.
	populated.Mit.Add(victim, mitigation.PhaseRTBH, 17, 389, true, 3, 1500)
	populated.Mit.Add(victim, mitigation.PhaseFlowSpec, 6, 443, false, 2, 900)
	add(populated)

	populated.Finalize()
	add(populated)
	return seeds
}

// testEvents is the event count of the test world (testUpdates): the
// bound every state these tests build decodes under.
func testEvents(t testing.TB) int {
	t.Helper()
	p, err := New(testMeta(), testUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	return len(p.Events)
}

// nonCanonicalStates are pipeline states of the shapes that once broke
// the decode/encode fixed point: the decoders accepted them, and the
// encoders then sorted, merged or shortened what they had read. Each
// section of an empty pipeline's state is valid but one, which holds a
// duplicate or out-of-order key (pending cells, anomaly slots, the keys of
// a BoundedSet or a TopCounter, hosts, events, sources, speculative
// pairs), a prefix with host bits set, an unsorted endpoint array, a
// pending port key at or above 1<<24 (no cell key holds one: those bits
// carry the cell's counts in memory), an anomaly slot outside the slot
// key's range, an endpoint outside the search range's clipped bounds, a
// varint padded with a zero byte, or, in each event-keyed section, an
// event ID equal to the test world's event count (testEvents), which no
// slot may be sized for. Every one must fail to decode.
func nonCanonicalStates(t testing.TB) map[string][]byte {
	t.Helper()
	n := uint64(testEvents(t))
	type section func(w *analysis.WireWriter)
	set := func(w *analysis.WireWriter, keys ...uint64) { // a BoundedSet
		w.Uvarint(32)
		w.Uvarint(0)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.Uvarint(k)
		}
	}
	counter := func(w *analysis.WireWriter) { w.Varint(1); w.Varint(2); w.Varint(3); w.Varint(4) }
	cell := func(w *analysis.WireWriter, id, ip, port uint64) {
		w.Uvarint(id)
		w.Uvarint(ip)
		w.Uvarint(port)
		w.Varint(3)
		w.Varint(1)
	}
	slot := func(w *analysis.WireWriter, addr uint32, slot int64, flows ...uint64) {
		w.Uvarint(uint64(addr))
		w.Byte(24)
		w.Varint(slot)
		w.Uvarint(5)
		w.Uvarint(1)
		set(w, flows...)
		set(w)
		set(w)
	}
	host := func(w *analysis.WireWriter, ip uint64, top ...uint64) {
		w.Uvarint(ip)
		w.Uvarint(1) // one day
		w.Varint(3)
		w.Byte(3)
		w.Uvarint(32) // its top counter
		w.Uvarint(uint64(len(top)))
		for _, k := range top {
			w.Uvarint(k)
			w.Uvarint(7)
		}
		for range 4 {
			set(w)
		}
	}
	dropEvents := func(w *analysis.WireWriter, ids ...uint64) {
		for range 33 {
			counter(w)
		}
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uvarint(id)
			w.Byte(32)
			counter(w)
		}
		w.Uvarint(0)
	}
	protoEvent := func(w *analysis.WireWriter, id uint64) {
		w.Uvarint(1)
		w.Uvarint(id)
		for range 5 {
			w.Varint(1)
		}
		w.Uvarint(0) // no amplification port
		set(w)
		w.Uvarint(0) // origin ASes
		w.Uvarint(0) // handover ASes
	}
	endpoints := func(w *analysis.WireWriter, starts ...float64) {
		w.Varint(int64(len(starts)))
		for range 2 {
			w.Uvarint(uint64(len(starts)))
			for _, v := range starts {
				w.F64(v)
			}
		}
	}
	cases := map[string]struct {
		at    int // operator section: Drop, Anomaly, Proto, Hosts, Align, Pending, Mit
		write section
	}{
		"pending cells out of order":      {5, func(w *analysis.WireWriter) { w.Uvarint(2); cell(w, 1, 9, 80); cell(w, 0, 9, 80) }},
		"pending cell twice":              {5, func(w *analysis.WireWriter) { w.Uvarint(2); cell(w, 1, 9, 80); cell(w, 1, 9, 80) }},
		"pending port key out of range":   {5, func(w *analysis.WireWriter) { w.Uvarint(1); cell(w, 0, 9, 1<<24) }},
		"anomaly slots out of order":      {1, func(w *analysis.WireWriter) { w.Uvarint(2); slot(w, 0x0a000000, 5); slot(w, 0x0a000000, 4) }},
		"anomaly prefix host bits":        {1, func(w *analysis.WireWriter) { w.Uvarint(1); slot(w, 0x0a000001, 5) }},
		"anomaly slot above key range":    {1, func(w *analysis.WireWriter) { w.Uvarint(1); slot(w, 0x0a000000, 1<<30) }},
		"anomaly slot below key range":    {1, func(w *analysis.WireWriter) { w.Uvarint(1); slot(w, 0x0a000000, -1<<30-1) }},
		"bounded set out of order":        {1, func(w *analysis.WireWriter) { w.Uvarint(1); slot(w, 0x0a000000, 5, 9, 4) }},
		"top counter out of order":        {3, func(w *analysis.WireWriter) { w.Uvarint(1); host(w, 7, 9, 4) }},
		"hosts out of order":              {3, func(w *analysis.WireWriter) { w.Uvarint(2); host(w, 7); host(w, 3) }},
		"host twice":                      {3, func(w *analysis.WireWriter) { w.Uvarint(2); host(w, 7); host(w, 7) }},
		"drop events out of order":        {0, func(w *analysis.WireWriter) { dropEvents(w, 2, 1) }},
		"drop event at the event count":   {0, func(w *analysis.WireWriter) { dropEvents(w, n) }},
		"proto event at the event count":  {2, func(w *analysis.WireWriter) { protoEvent(w, n) }},
		"pending cell at the event count": {5, func(w *analysis.WireWriter) { w.Uvarint(1); cell(w, n, 9, 80) }},
		"endpoints out of order":          {4, func(w *analysis.WireWriter) { endpoints(w, 0.5, -0.5) }},
		"endpoint NaN":                    {4, func(w *analysis.WireWriter) { endpoints(w, math.NaN()) }},
		"endpoint below search range":     {4, func(w *analysis.WireWriter) { endpoints(w, -2.5) }},
		"endpoint above search range":     {4, func(w *analysis.WireWriter) { endpoints(w, 3.5) }},
		"mitigation prefix host bits": {6, func(w *analysis.WireWriter) {
			w.Uvarint(1)
			w.Uvarint(0x0a000001)
			w.Byte(24)
			for range 4 {
				counter(w)
			}
		}},
	}
	empty, err := New(testMeta(), testUpdates(), events.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := empty.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// The header of the empty state: version, four zero counters, not
	// speculative, no pairs.
	const header = 1 + 4 + 1 + 1
	r := analysis.NewWireReader(valid[header:])
	var blobs [7][]byte
	for i := range blobs {
		blobs[i] = r.Blob()
	}
	states := make(map[string][]byte)
	for name, c := range cases {
		w := analysis.NewWireWriter()
		w.Byte(valid[0])
		w.Byte(1) // each operator's wire version is 1
		c.write(w)
		sections := blobs
		sections[c.at] = w.Bytes()[1:]
		out := analysis.NewWireWriter()
		for _, b := range valid[:header] {
			out.Byte(b)
		}
		for _, b := range sections {
			out.Blob(b)
		}
		states[name] = out.Bytes()
	}
	pairs := analysis.NewWireWriter()
	for _, b := range valid[:header-2] {
		pairs.Byte(b)
	}
	pairs.Bool(true)
	pairs.Uvarint(2)
	pairs.Uvarint(9)
	pairs.Varint(1)
	pairs.Uvarint(4)
	pairs.Varint(1)
	for _, b := range blobs {
		pairs.Blob(b)
	}
	states["pairs out of order"] = pairs.Bytes()
	padded := append([]byte{valid[0], 0x80, 0x00}, valid[2:]...) // TotalRecords: zero in two bytes
	states["padded varint"] = padded
	return states
}

// TestUnmarshalStateRejectsNonCanonical holds the decoders to the
// encoders' canonical form: every non-canonical state fails, and the
// valid state they were cut from decodes and re-encodes to itself.
func TestUnmarshalStateRejectsNonCanonical(t *testing.T) {
	for name, data := range nonCanonicalStates(t) {
		if _, err := UnmarshalState(nil, data, testEvents(t)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzOperatorSnapshotRoundTrip fuzzes the pipeline state codec — the
// payload federation snapshots carry. Arbitrary input (truncations,
// version skew, corrupted counts and blob lengths) must either decode
// or error: never panic, and never over-allocate on a hostile count.
// Whenever a blob does decode, re-encoding it must be a byte-level
// fixed point — the codec is the state fingerprint federation parity
// relies on.
func FuzzOperatorSnapshotRoundTrip(f *testing.F) {
	for _, seed := range seedStates(f) {
		f.Add(seed)
		if len(seed) > 0 {
			f.Add(seed[:len(seed)/2]) // truncation
			skew := append([]byte(nil), seed...)
			skew[0]++ // version skew
			f.Add(skew)
		}
	}
	f.Add([]byte{})
	states := nonCanonicalStates(f)
	nEvents := testEvents(f)
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(states[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalState(nil, data, nEvents)
		if err != nil {
			return
		}
		out, err := p.MarshalState()
		if err != nil {
			t.Fatalf("re-marshal of decoded state failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode is not a fixed point: in %d bytes, out %d bytes", len(data), len(out))
		}
		// A decoded snapshot must still behave like an operator source:
		// folding it into a fresh decode of itself doubles nothing it
		// should not — exercised here only for panics, the merge parity
		// itself is the conformance suite's job.
		q, err := UnmarshalState(nil, data, nEvents)
		if err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		p.Fold(q)
		if _, err := p.MarshalState(); err != nil {
			t.Fatalf("marshal after fold failed: %v", err)
		}
	})
}
