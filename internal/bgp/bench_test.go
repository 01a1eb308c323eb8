package bgp

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkEncodeUpdate measures RTBH announcement serialization.
func BenchmarkEncodeUpdate(b *testing.B) {
	u := sampleUpdateForBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeUpdate(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeUpdate measures the collector-side parse path.
func BenchmarkDecodeUpdate(b *testing.B) {
	enc, err := EncodeUpdate(sampleUpdateForBench())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func sampleUpdateForBench() *Update {
	return &Update{
		Attrs: PathAttrs{
			Origin:      OriginIGP,
			ASPath:      []uint32{64500, 65550},
			NextHop:     0xc0000242,
			Communities: Communities{Blackhole, NoExport, MakeCommunity(0, 1234)},
		},
		NLRI: []Prefix{MustParsePrefix("203.0.113.5/32")},
	}
}

// BenchmarkPrefixLookup measures the map-key hot path.
func BenchmarkPrefixContains(b *testing.B) {
	p := MustParsePrefix("203.0.113.0/24")
	hit := 0
	for i := 0; i < b.N; i++ {
		if p.Contains(0xcb007100 + uint32(i)&0xff) {
			hit++
		}
	}
	_ = hit
}

// BenchmarkPrefixMap measures the longest-prefix queries on a table
// shaped like the paper's blackholes: many /32s in a few hundred /16s,
// some /24s there, a few /17–/23s and two /12s. A probe hits a stored
// prefix, misses inside a /16 the filter passes, or is cut by the filter.
func BenchmarkPrefixMap(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	var m PrefixMap[int]
	sixteens := make([]uint32, 256)
	for i := range sixteens {
		sixteens[i] = r.Uint32() &^ 0xffff
	}
	in16 := func() uint32 { return sixteens[r.IntN(len(sixteens))] | r.Uint32()&0xffff }
	for i := 0; i < 20000; i++ {
		m.Set(HostPrefix(in16()), i)
	}
	for i := 0; i < 2000; i++ {
		m.Set(MakePrefix(in16(), 24), i)
	}
	for i := 0; i < 20; i++ {
		m.Set(MakePrefix(in16(), uint8(17+r.IntN(7))), i)
	}
	m.Set(MakePrefix(r.Uint32(), 12), 0)
	m.Set(MakePrefix(r.Uint32(), 12), 0)

	probes := map[string][]uint32{}
	for len(probes["hit"]) < 1024 || len(probes["miss"]) < 1024 || len(probes["cut"]) < 1024 {
		ip := in16()
		if r.IntN(2) == 0 {
			ip = r.Uint32()
		}
		kind := "hit"
		if _, _, ok := m.Longest(ip); !ok {
			kind = "cut"
			if b := ip >> 16; m.cover[b>>6]&(1<<(b&63)) != 0 {
				kind = "miss"
			}
		}
		probes[kind] = append(probes[kind], ip)
	}
	for _, kind := range []string{"hit", "miss", "cut"} {
		ips := probes[kind][:1024]
		b.Run("Longest/"+kind, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				if _, _, ok := m.Longest(ips[i&1023]); ok {
					n++
				}
			}
			_ = n
		})
		b.Run("AppendCovering/"+kind, func(b *testing.B) {
			var buf []PrefixEntry[int]
			for i := 0; i < b.N; i++ {
				buf = m.AppendCovering(buf[:0], ips[i&1023])
			}
		})
	}
}
