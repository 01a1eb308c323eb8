package events

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// mergePerDeltaSweep is the reference model for Sweep: the definition of
// Fig 10 taken literally, one full Merge per threshold, as this package
// computed it before the sweep became one pass over the announce gaps.
func mergePerDeltaSweep(updates []analysis.ControlUpdate, deltas []time.Duration, periodEnd time.Time) (points []SweepPoint, lowerBound float64) {
	ann := 0
	streams := make(map[streamKey]bool)
	for i := range updates {
		if updates[i].Announce {
			ann++
			streams[streamKey{prefix: updates[i].Prefix, peer: updates[i].Peer}] = true
		}
	}
	if ann == 0 {
		return nil, 0
	}
	for _, d := range deltas {
		evs := Merge(updates, d, periodEnd)
		points = append(points, SweepPoint{
			Delta:    d,
			Events:   len(evs),
			Fraction: float64(len(evs)) / float64(ann),
		})
	}
	return points, float64(len(streams)) / float64(ann)
}

func TestSweepMatchesMergePerDelta(t *testing.T) {
	// Every rule of Merge in one hand-written stream: an orphan withdraw,
	// a re-announcement of an active route, a repeated withdraw, a second
	// stream on the same prefix, and gaps of exactly 10 and 3 minutes.
	crafted := []analysis.ControlUpdate{
		upd(t0, 100, prefixA, false), // orphan
		upd(t0.Add(1*time.Minute), 100, prefixA, true),
		upd(t0.Add(2*time.Minute), 100, prefixA, true), // already active
		upd(t0.Add(5*time.Minute), 100, prefixA, false),
		upd(t0.Add(6*time.Minute), 100, prefixA, false), // already withdrawn: the gap runs from minute 5
		upd(t0.Add(7*time.Minute), 200, prefixA, true),
		upd(t0.Add(15*time.Minute), 100, prefixA, true), // gap == 10 min exactly
		upd(t0.Add(16*time.Minute), 100, prefixA, false),
		upd(t0.Add(19*time.Minute), 100, prefixA, true),  // gap == 3 min exactly
		upd(t0.Add(30*time.Minute), 200, prefixB, false), // orphan on an unseen stream
	}
	onlyWithdraws := []analysis.ControlUpdate{upd(t0, 100, prefixA, false), upd(t0.Add(time.Hour), 200, prefixB, false)}

	streams := map[string][]analysis.ControlUpdate{
		"nil": nil, "crafted": crafted, "zero announcements": onlyWithdraws,
		"one announcement": crafted[1:2],
	}
	for seed := uint64(1); seed <= 20; seed++ {
		streams[fmt.Sprintf("random %d", seed)] = randomStream(seed, int(seed*seed)) // 1..400 updates
	}

	split := 0
	for name, us := range streams {
		// The thresholds that matter are the stream's own gaps: read them off
		// an unbounded merge (one event per stream, every cycle an episode)
		// and probe each one exactly and a nanosecond to either side.
		deltas := []time.Duration{0, time.Nanosecond, DefaultDelta, 60 * time.Minute, math.MaxInt64}
		for _, e := range Merge(us, math.MaxInt64, pEnd) {
			for i := 1; i < len(e.Episodes); i++ {
				gap := e.Episodes[i].Announce.Sub(e.Episodes[i-1].Withdraw)
				deltas = append(deltas, gap, gap-1, gap+1, gap) // duplicates on purpose
			}
		}
		r := stats.NewRNG(uint64(len(us)))
		r.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })

		got, gotLower := Sweep(us, deltas, pEnd)
		want, wantLower := mergePerDeltaSweep(us, deltas, pEnd)
		if !reflect.DeepEqual(got, want) || math.Float64bits(gotLower) != math.Float64bits(wantLower) {
			t.Fatalf("%s: sweep differs:\none pass  %v %v\nper delta %v %v", name, got, gotLower, want, wantLower)
		}
		for i := range want {
			if math.Float64bits(got[i].Fraction) != math.Float64bits(want[i].Fraction) {
				t.Fatalf("%s: point %d fraction bits differ: %v vs %v", name, i, got[i], want[i])
			}
			if want[i].Events != want[0].Events {
				split++
			}
		}
	}
	if split == 0 {
		t.Fatal("no threshold changed any event count: the streams exercise nothing")
	}
}
