package hosts

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/analysis/cowtest"
	"repro/internal/stats"
)

// deepSnapshot is the reference model for Snapshot: the copy of every
// host, day and key array that Snapshot made before hosts became shared
// between an aggregator and its snapshots. (A fresh set merged with a set
// is that set: the keys in their order, then the saturated tail.) Records
// are values and are copied as they are.
func deepSnapshot(a *Aggregator) *Aggregator {
	s := New()
	for i := range a.recs {
		s.adoptRec(&a.recs[i])
	}
	for _, h := range a.big {
		ch := &hostAgg{ip: h.ip, owner: s.cow.Stamp()}
		for _, da := range h.days {
			da.inTop = da.cloneTop()
			ch.days = append(ch.days, da)
		}
		for f := range h.feat {
			ch.feat[f] = *analysis.NewBoundedSet(featCap)
			ch.feat[f].Merge(&h.feat[f])
		}
		s.adopt(ch)
	}
	return s
}

// TestSnapshotMatchesDeepCopy drives the aggregator and the deep-copy
// reference through the same random Add / Snapshot / Merge /
// UnmarshalBinary / Filter sequences (cowtest.Run). Eight hosts over six
// days, one host taking half of the traffic from a 4,096-port range, so
// that its 512-key feature sets saturate on the long-lived stores and stay
// exact on fresh branches, and the 32-key daily top counters fill up.
func TestSnapshotMatchesDeepCopy(t *testing.T) {
	const base = 0x0a000000
	c := cowtest.Case[*Aggregator]{
		New:  New,
		Deep: deepSnapshot,
		Add: func(a *Aggregator, x uint64) {
			ip := uint32(base)
			if x&1 == 0 {
				ip += uint32(x >> 1 % 8)
			}
			day := int32(x >> 8 % 6)
			wide, narrow := uint16(x>>16%4096), uint16(x>>32%64)
			if x>>4&1 == 0 {
				a.AddIncoming(ip, day, wide, narrow, 6, int64(1+x>>40%3))
			} else {
				a.AddOutgoing(ip, day, narrow, wide, 17, 1)
			}
		},
		Rewrites: []func(*Aggregator, uint64){
			func(a *Aggregator, x uint64) {
				gone := uint32(base + x%8)
				a.Filter(func(ip uint32) bool { return ip != gone })
			},
		},
		Decode: (*Aggregator).UnmarshalBinary,
		Copies: (*Aggregator).CowCopies,
	}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { cowtest.Run(t, seed, 250, c) })
	}
}

// TestHostRecordsMatchFullHosts drives one random Add stream through the
// aggregator and through a reference that makes every host a hostAgg at
// creation, so never holds a record, interleaved with Snapshot, Merge (of a
// snapshot, or of a whole store) and Filter. Twelve hosts, ip 0 among them,
// on mostly one day with few ports and one top key each, so that records
// survive, while the rare second day, fifth port and second top key
// promote them from each path. After every step each store's
// MarshalBinary, Hosts, ProfilesFunc and WhitelistCoverageFunc (at one and
// at two active days, with and without a keep predicate) must equal its
// reference's.
func TestHostRecordsMatchFullHosts(t *testing.T) {
	if size := unsafe.Sizeof(hostRec{}); size > 56 {
		t.Fatalf("a host record takes %d bytes, want at most 56", size)
	}
	type pair struct{ rec, ref *Aggregator }
	add := func(a *Aggregator, x uint64, full bool) {
		ip := uint32(x % 12)
		if full {
			if _, ok := a.slot(ip); !ok {
				a.adopt(newHost(ip, a.cow.Stamp()))
			}
		}
		day := int32(0)
		if x>>8%16 == 0 {
			day = int32(1 + x>>12%3)
		}
		port := func(shift uint) uint16 {
			if x>>shift%8 == 0 {
				return uint16(1000 + x>>(shift+3)%64)
			}
			return uint16(x >> (shift + 3) % 3)
		}
		if x>>16&1 == 0 {
			a.AddIncoming(ip, day, port(20), port(30), uint8(6+x>>40%2*11), int64(x>>44%3))
		} else {
			a.AddOutgoing(ip, day, port(20), port(30), 17, 1)
		}
	}
	keep := func(ip uint32) bool { return ip%3 != 1 }
	check := func(seed uint64, step int, op string, i int, p pair) {
		t.Helper()
		got, err := p.rec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || p.rec.Hosts() != p.ref.Hosts() {
			t.Fatalf("seed %d step %d (%s): store %d encodes %d hosts as %x, its reference %d as %x",
				seed, step, op, i, p.rec.Hosts(), got, p.ref.Hosts(), want)
		}
		for _, days := range []int{1, 2} {
			for _, k := range []func(uint32) bool{nil, keep} {
				if g, w := p.rec.ProfilesFunc(days, k), p.ref.ProfilesFunc(days, k); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d (%s): store %d profiles at %d days\n%+v, reference\n%+v", seed, step, op, i, days, g, w)
				}
				if g, w := p.rec.WhitelistCoverageFunc(days, k), p.ref.WhitelistCoverageFunc(days, k); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d (%s): store %d coverage at %d days\n%+v, reference\n%+v", seed, step, op, i, days, g, w)
				}
			}
		}
	}
	records, promoted, ipZero := 0, 0, false
	for seed := uint64(1); seed <= 8; seed++ {
		r := stats.NewRNG(seed)
		live := []pair{{New(), New()}}
		for step := 0; step < 300; step++ {
			var op string
			i := r.Intn(len(live))
			p := live[i]
			switch k := r.Intn(10); {
			case k < 6:
				op = "add"
				for n := 1 + r.Intn(20); n > 0; n-- {
					x := r.Uint64()
					add(p.rec, x, false)
					add(p.ref, x, true)
				}
			case k == 6:
				op = "snapshot"
				live = append(live, pair{p.rec.Snapshot(), p.ref.Snapshot()})
			case k == 7 && len(live) > 1:
				op = "merge a snapshot"
				o := live[(i+1+r.Intn(len(live)-1))%len(live)]
				p.rec.Merge(o.rec.Snapshot())
				p.ref.Merge(o.ref.Snapshot())
			case k == 8 && len(live) > 1:
				op = "merge a whole store"
				j := (i + 1 + r.Intn(len(live)-1)) % len(live)
				p.rec.Merge(live[j].rec)
				p.ref.Merge(live[j].ref)
				live = slices.Delete(live, j, j+1)
			case k == 9:
				op = "filter"
				gone := uint32(r.Intn(12))
				p.rec.Filter(func(ip uint32) bool { return ip != gone })
				p.ref.Filter(func(ip uint32) bool { return ip != gone })
			default:
				op = "drop"
				live = slices.Delete(live, i, i+1)
				if len(live) == 0 {
					live = append(live, pair{New(), New()})
				}
			}
			if len(live) > 5 {
				live = live[1:]
			}
			for i, p := range live {
				check(seed, step, op, i, p)
				if p.ref.Promoted() != p.ref.Hosts() {
					t.Fatalf("seed %d step %d: the reference holds %d records", seed, step, p.ref.Hosts()-p.ref.Promoted())
				}
				records += p.rec.Hosts() - p.rec.Promoted()
				promoted += p.rec.Promoted()
				if len(p.rec.slots) > 0 {
					_, ok := p.rec.probe(0)
					ipZero = ipZero || ok
				}
			}
		}
	}
	if records == 0 || promoted == 0 || !ipZero {
		t.Fatalf("%d record and %d promoted host-steps, ip 0 seen %v: the walk missed a tier", records, promoted, ipZero)
	}
}
