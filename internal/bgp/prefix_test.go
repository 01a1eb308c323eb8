package bgp

import (
	"testing"
	"testing/quick"
)

func TestParseFormatAddr(t *testing.T) {
	cases := []struct {
		s    string
		want uint32
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xffffffff},
		{"192.0.2.1", 0xc0000201},
		{"10.0.0.1", 0x0a000001},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", c.s, err)
		}
		if got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", c.s, got, c.want)
		}
		if back := FormatAddr(got); back != c.s {
			t.Errorf("FormatAddr(%#x) = %q, want %q", got, back, c.s)
		}
	}
}

func TestParseAddrRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1..2.3"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", s)
		}
	}
}

// TestParseAddrAllocs: a valid address parses without allocating, so
// the side-table readers can call it once per entry for free.
func TestParseAddrAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseAddr("203.0.113.255"); err != nil {
			t.Fatal(err)
		}
		if _, err := ParsePrefix("198.51.100.0/24"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseAddr + ParsePrefix: %v allocations per call, want 0", allocs)
	}
	for _, s := range []string{"1.2.3.4/", "1.2.3.4/33", "1.2.3.4/x", "1.2.3/8", "1.2.3.4.", ".1.2.3", "1.2.3.4 ", "+1.2.3.4", "1.2.3.0400", "１.2.3.4"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) unexpectedly succeeded", s)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("203.0.113.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len != 24 || p.Addr != 0xcb007100 {
		t.Fatalf("got %v", p)
	}
	// Bare address becomes a /32.
	p, err = ParsePrefix("198.51.100.7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len != 32 || p.String() != "198.51.100.7/32" {
		t.Fatalf("got %v", p)
	}
	// Non-canonical input is masked.
	p = MustParsePrefix("10.1.2.3/8")
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("masking failed: %v", p)
	}
}

func TestParsePrefixRejects(t *testing.T) {
	for _, s := range []string{"1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/x", "1.2.3/24", "1.2.3.4/08", "1.2.3.4/+8", "1.2.3.4/00", "1.2.3.4/-0", "1.2.3.4/8 "} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) unexpectedly succeeded", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	in, _ := ParseAddr("192.0.2.200")
	out, _ := ParseAddr("192.0.3.1")
	if !p.Contains(in) {
		t.Error("Contains(in-range) = false")
	}
	if p.Contains(out) {
		t.Error("Contains(out-of-range) = true")
	}
	all := MakePrefix(0, 0)
	if !all.Contains(out) {
		t.Error("/0 should contain everything")
	}
	host := HostPrefix(in)
	if !host.Contains(in) || host.Contains(in+1) {
		t.Error("/32 containment wrong")
	}
}

func TestNumAddresses(t *testing.T) {
	if n := MustParsePrefix("10.0.0.0/8").NumAddresses(); n != 1<<24 {
		t.Fatalf("/8 has %d addresses", n)
	}
	if n := HostPrefix(1).NumAddresses(); n != 1 {
		t.Fatalf("/32 has %d addresses", n)
	}
	if n := MakePrefix(0, 0).NumAddresses(); n != 1<<32 {
		t.Fatalf("/0 has %d addresses", n)
	}
}

func TestNLRIRoundTripProperty(t *testing.T) {
	f := func(addr uint32, lenRaw uint8) bool {
		p := MakePrefix(addr, lenRaw%33)
		enc := appendNLRI(nil, p)
		got, n, err := decodeNLRI(enc)
		return err == nil && n == len(enc) && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNLRIRejectsTrailingBits(t *testing.T) {
	// /24 with a nonzero 4th... actually /24 encodes 3 octets; craft a /20
	// whose third octet has bits set below the mask.
	b := []byte{20, 192, 0, 0x0f}
	if _, _, err := decodeNLRI(b); err == nil {
		t.Fatal("NLRI with stray host bits accepted")
	}
}

func TestDecodeNLRIErrors(t *testing.T) {
	if _, _, err := decodeNLRI(nil); err == nil {
		t.Error("empty NLRI accepted")
	}
	if _, _, err := decodeNLRI([]byte{33, 0, 0, 0, 0, 0}); err == nil {
		t.Error("prefix length 33 accepted")
	}
	if _, _, err := decodeNLRI([]byte{24, 192, 0}); err == nil {
		t.Error("truncated NLRI accepted")
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(addr uint32, lenRaw uint8) bool {
		p := MakePrefix(addr, lenRaw%33)
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakePrefixPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakePrefix(0, 33)
}
