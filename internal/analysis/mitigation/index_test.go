package mitigation

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// refLookup answers Lookup by brute force over the stably time-sorted
// stream: pair every announcement with the next withdrawal of the same
// rule from the same peer, then take the longest prefix one of whose
// windows covers (ip, t).
func refLookup(sorted []analysis.FlowUpdate, periodEnd time.Time, ip uint32, t time.Time) (bgp.Prefix, bool, int) {
	type win struct {
		p          bgp.Prefix
		start, end time.Time
	}
	var wins []win
	open := map[ruleKey]int{}
	for _, fu := range sorted {
		wire, _ := bgp.EncodeFlowRule(fu.Rule)
		k := ruleKey{peer: fu.Peer, wire: string(wire)}
		i, isOpen := open[k]
		switch {
		case fu.Announce && !isOpen:
			open[k] = len(wins)
			wins = append(wins, win{p: fu.Rule.Dst, start: fu.Time})
		case !fu.Announce && isOpen:
			wins[i].end = fu.Time
			delete(open, k)
		}
	}
	var best bgp.Prefix
	found := false
	for _, w := range wins {
		covers := !t.Before(w.start) && w.p.Contains(ip) &&
			((w.end.IsZero() && !t.After(periodEnd)) || (!w.end.IsZero() && t.Before(w.end)))
		if covers && (!found || w.p.Len > best.Len) {
			best, found = w.p, true
		}
	}
	return best, found, len(wins)
}

// TestIndexExtendMatchesReference feeds random FlowSpec streams — a few
// rules on nested prefixes, announced and withdrawn by two peers, with
// equal timestamps and steps back in time — to one index in random
// slices, and checks every Lookup and the window count after each slice
// against a brute-force pairing of the stably sorted stream so far, and
// against NewIndex over that stream.
func TestIndexExtendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 38))
	base := time.Unix(1_600_000_000, 0).UTC()
	periodEnd := base.Add(200 * time.Minute)
	prefixes := []bgp.Prefix{
		bgp.MakePrefix(0xc0a80000, 16), bgp.MakePrefix(0xc0a80100, 24),
		bgp.MakePrefix(0xc0a80101, 32), bgp.MakePrefix(0x0a000000, 8),
	}
	var rules []*bgp.FlowRule
	for _, p := range prefixes {
		rules = append(rules, &bgp.FlowRule{Dst: p, HasDst: true},
			&bgp.FlowRule{Dst: p, HasDst: true, Protos: []uint8{17}, SrcPorts: []uint16{123}})
	}
	probes := []uint32{0xc0a80101, 0xc0a80102, 0xc0a80201, 0x0a000001, 0x0b000001}

	for round := 0; round < 60; round++ {
		stream := make([]analysis.FlowUpdate, 10+rng.IntN(40))
		clock := 0
		for i := range stream {
			// Mostly forward in time, equal stamps now and then, and a
			// step back in one update of eight.
			switch rng.IntN(8) {
			case 0:
				clock -= rng.IntN(30)
			case 1:
			default:
				clock += rng.IntN(10)
			}
			stream[i] = analysis.FlowUpdate{
				Time:     base.Add(time.Duration(clock) * time.Minute),
				Peer:     uint32(64500 + rng.IntN(2)),
				Rule:     rules[rng.IntN(len(rules))],
				Announce: rng.IntN(3) > 0,
			}
		}
		if rng.IntN(4) == 0 {
			analysis.SortFlowUpdates(stream) // an in-order stream too
		}

		ix := NewIndex(nil, periodEnd)
		for done := 0; done < len(stream); {
			k := done + 1 + rng.IntN(len(stream)-done)
			ix.Extend(stream[done:k])
			done = k

			sorted := append([]analysis.FlowUpdate(nil), stream[:done]...)
			analysis.SortFlowUpdates(sorted)
			batch := NewIndex(sorted, periodEnd)
			for _, ip := range probes {
				for m := -40; m < 240; m += 7 {
					at := base.Add(time.Duration(m) * time.Minute)
					wantP, wantOK, wantWins := refLookup(sorted, periodEnd, ip, at)
					gotP, gotOK := ix.Lookup(ip, at)
					batchP, batchOK := batch.Lookup(ip, at)
					if gotP != wantP || gotOK != wantOK || batchP != wantP || batchOK != wantOK {
						t.Fatalf("round %d, %d updates: Lookup(%08x, %v) = %v %v extended, %v %v batch; want %v %v",
							round, done, ip, at, gotP, gotOK, batchP, batchOK, wantP, wantOK)
					}
					if ix.Windows() != wantWins || batch.Windows() != wantWins {
						t.Fatalf("round %d, %d updates: %d windows extended, %d batch; want %d",
							round, done, ix.Windows(), batch.Windows(), wantWins)
					}
				}
			}
		}
	}
}
