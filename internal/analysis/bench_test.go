package analysis

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/mrt"
)

// benchArchive writes an MRT archive of n UPDATE records in the mix a
// route-server collector records: RTBH announcements carrying the
// BLACKHOLE and a targeting community, their withdrawals, and every
// tenth record a FlowSpec discard rule.
func benchArchive(tb testing.TB, n int) []byte {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	t0 := time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		dst := bgp.HostPrefix(0xcb000000 | uint32(i)&0xffff)
		upd := &bgp.Update{Withdrawn: []bgp.Prefix{dst}}
		switch {
		case i%10 == 9:
			var err error
			upd, err = bgp.UpdateFromFlowSpec(&bgp.FlowSpecUpdate{
				Announced: []*bgp.FlowRule{{Dst: dst, HasDst: true, Protos: []uint8{17}, SrcPorts: []uint16{123}}},
				ExtComms:  []bgp.ExtCommunity{bgp.TrafficRateDiscard},
			})
			if err != nil {
				tb.Fatal(err)
			}
		case i%2 == 0:
			upd = &bgp.Update{
				Attrs: bgp.PathAttrs{
					ASPath: []uint32{64500, 64501}, NextHop: 1,
					Communities: bgp.Communities{bgp.Blackhole, bgp.MakeCommunity(0, 64502)},
				},
				NLRI: []bgp.Prefix{dst},
			}
		}
		msg, err := bgp.EncodeUpdate(upd)
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.WriteRecord(&mrt.Record{Timestamp: t0.Add(time.Duration(i) * time.Second), PeerAS: 64500, Message: msg}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkParseMRTAll times the control-archive parse behind OpenDataset
// over 100,000 records.
func BenchmarkParseMRTAll(b *testing.B) {
	data := benchArchive(b, 100_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us, fs, err := ParseMRTAll(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(us) != 90_000 || len(fs) != 10_000 {
			b.Fatalf("%d control and %d FlowSpec updates", len(us), len(fs))
		}
	}
}
