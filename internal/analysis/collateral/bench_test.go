package collateral

import (
	"testing"

	"repro/internal/stats"
)

// BenchmarkPendingAdd measures Pending.Add, one op per sampled packet,
// over a seeded stream shaped like the pipeline's during-event records:
// runs of 64 to 4,095 records per event, nine in ten toward a new
// (destination, port) cell of the event's /24 (attack traffic sprays
// ports), the rest repeating one of a few service cells, one to three
// packets each and a quarter of them with 20 (a spilled cell). The store
// restarts empty at the end of every pass, so table growth is paid as the
// pipeline pays it.
func BenchmarkPendingAdd(b *testing.B) {
	type rec struct {
		id    int
		ip    uint32
		port  uint16
		proto uint8
		drop  bool
		pkts  int64
	}
	r := stats.NewRNG(1)
	recs := make([]rec, 0, 1<<18)
	for id := 0; len(recs) < cap(recs); id++ {
		base := 0x0a000000 + uint32(id)<<8
		for n := 64 + r.Intn(4032); n > 0 && len(recs) < cap(recs); n-- {
			x := rec{id: id, ip: base | uint32(r.Intn(256)), port: uint16(r.Intn(1 << 16)), proto: 17,
				drop: r.Bool(0.6), pkts: int64(1 + r.Intn(3))}
			if r.Bool(0.1) {
				x.ip, x.port, x.proto = base|uint32(r.Intn(4)), []uint16{53, 80, 443}[r.Intn(3)], 6
				if r.Bool(0.25) {
					x.pkts = 20
				}
			}
			recs = append(recs, x)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	p := NewPending()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if j == 0 {
			p = NewPending()
		}
		x := &recs[j]
		p.Add(x.id, x.ip, x.port, x.proto, x.drop, x.pkts)
	}
}
