package ip2as

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
)

func TestLookupLongestMatchWins(t *testing.T) {
	tb := New()
	tb.Add(bgp.MustParsePrefix("10.0.0.0/8"), 100)
	tb.Add(bgp.MustParsePrefix("10.1.0.0/16"), 200)
	tb.Add(bgp.MustParsePrefix("10.1.2.0/24"), 300)

	addr := func(s string) uint32 {
		a, err := bgp.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		ip   string
		want uint32
	}{
		{"10.200.0.1", 100},
		{"10.1.50.1", 200},
		{"10.1.2.3", 300},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(addr(c.ip))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d, %v; want %d", c.ip, got, ok, c.want)
		}
	}
	if _, ok := tb.Lookup(addr("192.0.2.1")); ok {
		t.Error("unmapped address resolved")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var tb Table
	if _, ok := tb.Lookup(1); ok {
		t.Fatal("zero table resolved an address")
	}
	tb.Add(bgp.HostPrefix(1), 5)
	if asn, ok := tb.Lookup(1); !ok || asn != 5 {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddReplacesAndCounts(t *testing.T) {
	tb := New()
	p := bgp.MustParsePrefix("10.0.0.0/8")
	tb.Add(p, 1)
	tb.Add(p, 2)
	if n := len(tb.Entries()); n != 1 {
		t.Fatalf("%d entries", n)
	}
	if asn, _ := tb.Lookup(0x0a000001); asn != 2 {
		t.Fatalf("replacement failed: %d", asn)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := New()
	tb.Add(bgp.MustParsePrefix("10.0.0.0/8"), 100)
	tb.Add(bgp.MustParsePrefix("203.0.113.0/24"), 64500)
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Entries()); n != 2 {
		t.Fatalf("%d entries", n)
	}
	if asn, ok := got.Lookup(0xcb007105); !ok || asn != 64500 {
		t.Fatalf("lookup after round trip = %d, %v", asn, ok)
	}
}

func TestReadJSONRejectsBadPrefix(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte(`[{"prefix":"999.0.0.0/8","asn":1}]`))); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`garbage`))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEntriesSorted(t *testing.T) {
	tb := New()
	tb.Add(bgp.MustParsePrefix("203.0.113.0/24"), 3)
	tb.Add(bgp.MustParsePrefix("10.0.0.0/8"), 1)
	tb.Add(bgp.MustParsePrefix("10.0.0.0/16"), 2)
	es := tb.Entries()
	if len(es) != 3 || es[0].ASN != 1 || es[1].ASN != 2 || es[2].ASN != 3 {
		t.Fatalf("Entries = %v", es)
	}
}

func TestLookupConsistencyProperty(t *testing.T) {
	f := func(addr uint32) bool {
		tb := New()
		p16 := bgp.MakePrefix(addr, 16)
		p24 := bgp.MakePrefix(addr, 24)
		tb.Add(p16, 16)
		tb.Add(p24, 24)
		got, ok := tb.Lookup(addr)
		return ok && got == 24 // the /24 always wins for its own address
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
