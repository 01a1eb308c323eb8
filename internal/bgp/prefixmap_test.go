package bgp

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
)

// refPrefixMap is the reference model of PrefixMap: a plain map with a
// scan of all 33 lengths, longest first, and no length set or filter.
type refPrefixMap map[Prefix]int

func (r refPrefixMap) covering(addr uint32) []PrefixEntry[int] {
	var out []PrefixEntry[int]
	for l := 32; l >= 0; l-- {
		p := MakePrefix(addr, uint8(l))
		if v, ok := r[p]; ok {
			out = append(out, PrefixEntry[int]{p, v})
		}
	}
	return out
}

// prefixPool draws prefixes of every length class the /16 filter treats
// differently — /0, /1–/15 (which mark several /16s), /16 and /17–/32 —
// around a few base addresses, so that most probes have covering prefixes
// at several lengths.
func prefixPool(r *rand.Rand) []Prefix {
	pool := []Prefix{MakePrefix(r.Uint32(), 0)}
	for b := 0; b < 3; b++ {
		base := r.Uint32()
		for _, l := range []uint8{uint8(1 + r.IntN(15)), uint8(1 + r.IntN(15)), 16, uint8(17 + r.IntN(7)), 24, uint8(25 + r.IntN(7)), 32, 32} {
			pool = append(pool, MakePrefix(base^r.Uint32()>>(8+r.IntN(24)), l))
		}
	}
	return pool
}

// prefixEdgeProbes lists the addresses where a /16 filter can go wrong:
// both ends of every prefix and of its /16 (or, for a shorter prefix, of
// its whole range), the addresses just outside them, and random ones.
func prefixEdgeProbes(r *rand.Rand, pool []Prefix) []uint32 {
	ips := []uint32{0, 0xffff, 0x10000, 0xffffffff, 0xffff0000, 0xfffeffff}
	for _, p := range pool {
		size := uint32(1)<<(32-p.Len) - 1 // /0 wraps to all-ones, as wanted
		first, last := p.Addr, p.Addr+size
		lo16, hi16 := first&^0xffff, last|0xffff
		ips = append(ips, first, last, first-1, last+1, lo16, hi16, lo16-1, hi16+1, first+r.Uint32()&size)
	}
	for i := 0; i < 16; i++ {
		ips = append(ips, r.Uint32())
	}
	return ips
}

// TestPrefixMapMatchesReference holds PrefixMap to the reference model
// over random Set/Delete sequences: Get, Len, Lengths and Each after every
// operation, and Longest and AppendCovering (its longest-first order
// included) on every filter edge of the pool, with a Grow now and then.
// After a Delete, no probe inside the deleted prefix matches it.
func TestPrefixMapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewPCG(seed, 42))
		pool := prefixPool(r)
		probes := prefixEdgeProbes(r, pool)
		var m PrefixMap[int]
		ref := refPrefixMap{}
		var buf []PrefixEntry[int]
		for op := 0; op < 150; op++ {
			p := pool[r.IntN(len(pool))]
			deleted := r.IntN(5) < 2
			switch {
			case deleted:
				m.Delete(p)
				delete(ref, p)
			case r.IntN(20) == 0:
				m.Grow(r.IntN(8))
				fallthrough
			default:
				v := r.IntN(1000)
				m.Set(p, v)
				ref[p] = v
			}

			var lens uint64
			for q := range ref {
				lens |= 1 << q.Len
			}
			if m.Len() != len(ref) || m.Lengths() != lens {
				t.Fatalf("seed %d op %d: Len %d Lengths %#x, want %d %#x", seed, op, m.Len(), m.Lengths(), len(ref), lens)
			}
			for _, q := range pool {
				v, ok := m.Get(q)
				if wv, wok := ref[q]; v != wv || ok != wok {
					t.Fatalf("seed %d op %d: Get(%s) = %d %v, want %d %v", seed, op, q, v, ok, wv, wok)
				}
			}
			each := map[Prefix]int{}
			m.Each(func(q Prefix, v int) { each[q] = v })
			if !maps.Equal(each, ref) {
				t.Fatalf("seed %d op %d: Each visits %v, want %v", seed, op, each, ref)
			}
			for _, ip := range probes {
				want := ref.covering(ip)
				buf = m.AppendCovering(buf[:0], ip)
				if !slices.Equal(buf, want) {
					t.Fatalf("seed %d op %d: AppendCovering(%s) = %v, want %v", seed, op, FormatAddr(ip), buf, want)
				}
				lp, lv, lok := m.Longest(ip)
				if len(want) == 0 && lok || len(want) > 0 && (!lok || lp != want[0].Prefix || lv != want[0].Value) {
					t.Fatalf("seed %d op %d: Longest(%s) = %s %d %v, want %v", seed, op, FormatAddr(ip), lp, lv, lok, want)
				}
				if deleted && p.Contains(ip) && (lok && lp == p || slices.ContainsFunc(buf, func(e PrefixEntry[int]) bool { return e.Prefix == p })) {
					t.Fatalf("seed %d op %d: deleted %s still matches %s", seed, op, p, FormatAddr(ip))
				}
			}
		}
	}
}

// nestedPool draws prefixes packed into two /16s, so that buckets hold
// many entries: chains of nested prefixes from /16 down to /32, siblings
// sharing every length, and the /0–/15 prefixes that cover both /16s or
// only one of them.
func nestedPool(r *rand.Rand) []Prefix {
	a := r.Uint32() &^ 0xffff
	b := a ^ 1<<16 // the neighbouring /16: same /15 and shorter
	pool := []Prefix{MakePrefix(a, 0), MakePrefix(a, uint8(1+r.IntN(14))), MakePrefix(a, 15), MakePrefix(a, 16), MakePrefix(b, 16)}
	for _, base := range []uint32{a, b} {
		for i := 0; i < 12; i++ {
			host := base | r.Uint32()&0xffff
			for _, l := range []uint8{uint8(17 + r.IntN(4)), 24, uint8(25 + r.IntN(6)), 31, 32} {
				pool = append(pool, MakePrefix(host, l))
			}
		}
	}
	return pool
}

// TestPrefixMapBucketsMatchReference holds the buckets to the per-length
// reference over seeded Set/Delete sequences on crowded /16s: new
// prefixes, values replaced by a second Set, prefixes deleted and set
// again. Get, Longest and AppendCovering (order included) must agree on
// every edge of every prefix after every operation, and no value a
// Set replaced or a prefix Delete removed may be returned.
func TestPrefixMapBucketsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		pool := nestedPool(r)
		probes := prefixEdgeProbes(r, pool)
		var m PrefixMap[int]
		ref := refPrefixMap{}
		var buf []PrefixEntry[int]
		var sets, resets, deletes, readds int
		gone := map[Prefix]bool{}
		for op := 0; op < 200; op++ {
			p := pool[r.IntN(len(pool))]
			_, had := ref[p]
			if r.IntN(3) == 0 {
				m.Delete(p)
				delete(ref, p)
				gone[p] = true
				deletes += b2i(had)
			} else {
				v := op*1000 + r.IntN(1000) // a value no earlier Set used
				m.Set(p, v)
				ref[p] = v
				sets++
				resets += b2i(had)
				readds += b2i(!had && gone[p])
			}
			for _, q := range pool {
				v, ok := m.Get(q)
				if wv, wok := ref[q]; v != wv || ok != wok {
					t.Fatalf("seed %d op %d: Get(%s) = %d %v, want %d %v", seed, op, q, v, ok, wv, wok)
				}
			}
			for _, ip := range probes {
				want := ref.covering(ip)
				buf = m.AppendCovering(buf[:0], ip)
				if !slices.Equal(buf, want) {
					t.Fatalf("seed %d op %d: AppendCovering(%s) = %v, want %v", seed, op, FormatAddr(ip), buf, want)
				}
				lp, lv, lok := m.Longest(ip)
				if len(want) == 0 && lok || len(want) > 0 && (!lok || lp != want[0].Prefix || lv != want[0].Value) {
					t.Fatalf("seed %d op %d: Longest(%s) = %s %d %v, want %v", seed, op, FormatAddr(ip), lp, lv, lok, want)
				}
			}
		}
		if resets == 0 || deletes == 0 || readds == 0 {
			t.Fatalf("seed %d: %d sets, %d replacing a value, %d deletes, %d re-adding a deleted prefix: a case is vacuous", seed, sets, resets, deletes, readds)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
