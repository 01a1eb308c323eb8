package hosts

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analysis"
)

// wireVersion is the hosts snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the host aggregates canonically: hosts sorted by
// IP; inside each host the days sorted ascending, each day carrying its
// direction flags and top-port counter, followed by the four feature
// sets.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	hs := slices.Clone(a.big)
	for i := range a.recs {
		hs = append(hs, a.recs[i].replay(analysis.Stamp{}))
	}
	slices.SortFunc(hs, func(x, y *hostAgg) int { return cmp.Compare(x.ip, y.ip) })
	w.Uvarint(uint64(len(hs)))
	for _, h := range hs {
		w.Uvarint(uint64(h.ip))
		w.Uvarint(uint64(len(h.days)))
		for i := range h.days {
			da := &h.days[i]
			w.Varint(int64(da.day))
			var flags byte
			if da.hasIn {
				flags |= 1
			}
			if da.hasOut {
				flags |= 2
			}
			w.Byte(flags)
			da.top().EncodeWire(w)
		}
		for f := range h.feat {
			h.feat[f].EncodeWire(w)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's state with the decoded
// snapshot, every host as a hostAgg. On error the aggregator is left
// unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	// Minimum per host: ip, day count, four minimal feature sets.
	n := r.Count(14)
	hs := &Aggregator{}
	var order analysis.KeyOrder
	for i := 0; i < n; i++ {
		ip := r.U32()
		order.Next(r, uint64(ip))
		nDays := r.Count(4) // day, flags, minimal counter
		h := &hostAgg{ip: ip, owner: a.cow.Stamp(), days: make([]dayAgg, 0, nDays)}
		for j := 0; j < nDays; j++ {
			d := r.Varint()
			if int64(int32(d)) != d {
				return fmt.Errorf("hosts: day index %d out of range", d)
			}
			if j > 0 && int32(d) <= h.days[j-1].day {
				return fmt.Errorf("hosts: day %d duplicate or out of order", d)
			}
			flags := r.Byte()
			if flags > 3 {
				return fmt.Errorf("hosts: invalid day flags %d", flags)
			}
			da := dayAgg{day: int32(d), hasIn: flags&1 != 0, hasOut: flags&2 != 0, inTop: new(analysis.TopCounter)}
			da.inTop.DecodeWire(r)
			h.days = append(h.days, da)
		}
		for f := range h.feat {
			h.feat[f].DecodeWire(r)
		}
		if r.Err() != nil {
			break
		}
		hs.adopt(h)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("hosts: %w", err)
	}
	a.slots, a.recs, a.big = hs.slots, hs.recs, hs.big
	return nil
}

// Filter drops every host for which keep returns false. The federation's
// live path uses this to reduce a speculative candidate population to
// the hosts a batch pass would have profiled before shipping the state.
// It rebuilds a's own table, so hosts shared with a snapshot are
// untouched.
func (a *Aggregator) Filter(keep func(ip uint32) bool) {
	kept := &Aggregator{}
	for i := range a.recs {
		if keep(a.recs[i].ip) {
			kept.adoptRec(&a.recs[i])
		}
	}
	for _, h := range a.big {
		if keep(h.ip) {
			kept.adopt(h)
		}
	}
	a.slots, a.recs, a.big = kept.slots, kept.recs, kept.big
}
