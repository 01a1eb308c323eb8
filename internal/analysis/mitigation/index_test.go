package mitigation

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// lookup is the reference model of Cursor.Lookup, the index's own linear
// query before the cursor: one map probe for each of the 33 prefix
// lengths, longest first, with no length set, no /16 filter and no memo,
// scanning each prefix's start-sorted windows for one covering tn.
func (ix *Index) lookup(ip uint32, tn int64) (bgp.Prefix, bool) {
	for l := 32; l >= 0; l-- {
		p := bgp.MakePrefix(ip, uint8(l))
		wins, _ := ix.spans.Get(p)
		for _, w := range wins {
			if tn < w.start {
				break
			}
			if tn < w.end {
				return p, true
			}
		}
	}
	return bgp.Prefix{}, false
}

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
					gotP, gotOK := ix.lookup(ip, at.UnixNano())
					batchP, batchOK := batch.lookup(ip, at.UnixNano())
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

// TestFlowSpecCursorMatchesIndex holds one Cursor, reused across every
// Extend of its index, to the linear reference lookup and to the
// brute-force pairing of the sorted stream. The streams step back in time
// now and then, and every round ends on a suffix that starts before the
// stream folded so far, so the index is rebuilt under the cursor. After
// each Extend the cursor is asked first about the address it resolved
// last, whose memo the extension may have made stale; the instants probed
// are every window bound, a nanosecond either side of it, the period end
// and past it.
func TestFlowSpecCursorMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 7))
	base := time.Unix(1_600_000_000, 0).UTC()
	periodEnd := base.Add(150 * time.Minute)
	prefixes := []bgp.Prefix{
		bgp.MakePrefix(0xc0a80000, 16), bgp.MakePrefix(0xc0a80100, 24),
		bgp.MakePrefix(0xc0a80101, 32), bgp.MakePrefix(0xc0000000, 8),
		bgp.MakePrefix(0x0a000000, 8),
	}
	var rules []*bgp.FlowRule
	for _, p := range prefixes {
		rules = append(rules, &bgp.FlowRule{Dst: p, HasDst: true},
			&bgp.FlowRule{Dst: p, HasDst: true, Protos: []uint8{17}, SrcPorts: []uint16{389}})
	}
	probes := []uint32{0xc0a80101, 0xc0a80102, 0xc0a80201, 0xc0b00001, 0x0a000001, 0x0b000001}

	var queries, hits int
	for round := 0; round < 30; round++ {
		stream := make([]analysis.FlowUpdate, 12+rng.IntN(40))
		clock := 0
		for i := range stream {
			switch rng.IntN(10) {
			case 0:
				clock -= rng.IntN(20)
			case 1:
			default:
				clock += rng.IntN(12)
			}
			stream[i] = analysis.FlowUpdate{
				Time:     base.Add(time.Duration(clock) * time.Minute),
				Peer:     uint32(64500 + rng.IntN(2)),
				Rule:     rules[rng.IntN(len(rules))],
				Announce: rng.IntN(3) > 0,
			}
		}
		// The last few updates step back behind everything before them.
		tail := len(stream) - 1 - rng.IntN(3)
		for i := tail; i < len(stream); i++ {
			stream[i].Time = base.Add(time.Duration(rng.IntN(clock+1)) * time.Minute)
		}

		ix := NewIndex(nil, periodEnd)
		cur := NewCursor(ix)
		last := probes[0]
		for done := 0; done < len(stream); {
			k := done + 1 + rng.IntN(len(stream)-done)
			if done < tail && k > tail {
				k = tail // the stepping-back suffix is a slice of its own
			}
			ix.Extend(stream[done:k])
			done = k

			sorted := append([]analysis.FlowUpdate(nil), stream[:done]...)
			analysis.SortFlowUpdates(sorted)
			instants := []time.Time{periodEnd, periodEnd.Add(time.Nanosecond), periodEnd.Add(time.Hour), base.Add(-time.Minute)}
			for _, fu := range sorted {
				for _, d := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond} {
					instants = append(instants, fu.Time.Add(d))
				}
			}
			// The address resolved last goes first; the rest in a new order
			// each time, so that any of them may be the next one's memo.
			ips := append([]uint32{last}, probes...)
			rng.Shuffle(len(ips)-1, func(i, j int) { ips[i+1], ips[j+1] = ips[j+1], ips[i+1] })
			for _, ip := range ips {
				for _, at := range instants {
					wantP, wantOK, _ := refLookup(sorted, periodEnd, ip, at)
					linP, linOK := ix.lookup(ip, at.UnixNano())
					gotP, gotOK := cur.Lookup(ip, at.UnixNano())
					if gotP != wantP || gotOK != wantOK || linP != wantP || linOK != wantOK {
						t.Fatalf("round %d, %d updates: Lookup(%08x, %v) = %v %v cursor, %v %v linear; want %v %v",
							round, done, ip, at, gotP, gotOK, linP, linOK, wantP, wantOK)
					}
					queries++
					if wantOK {
						hits++
					}
				}
				last = ip
			}
		}
	}
	if hits == 0 || hits == queries {
		t.Fatalf("%d of %d queries covered: the comparison is vacuous", hits, queries)
	}
}
