package pipeline

import (
	"bytes"
	"testing"
	"time"

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

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalState(nil, data)
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
		q, err := UnmarshalState(nil, data)
		if err != nil {
			t.Fatalf("second decode of accepted input failed: %v", err)
		}
		p.Fold(q)
		if _, err := p.MarshalState(); err != nil {
			t.Fatalf("marshal after fold failed: %v", err)
		}
	})
}
