package bgp

import (
	"testing"
	"testing/quick"
)

func TestBlackholeCommunityValue(t *testing.T) {
	// RFC 7999 assigns 65535:666.
	if Blackhole.ASN() != 65535 || Blackhole.Value() != 666 {
		t.Fatalf("BLACKHOLE = %s", Blackhole)
	}
	if Blackhole.String() != "65535:666" {
		t.Fatalf("String = %q", Blackhole.String())
	}
}

func TestMakeCommunityRoundTripProperty(t *testing.T) {
	f := func(asn, value uint16) bool {
		c := MakeCommunity(asn, value)
		return c.ASN() == asn && c.Value() == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommunitiesContains(t *testing.T) {
	cs := Communities{Blackhole, MakeCommunity(0, 64501)}
	if !cs.HasBlackhole() {
		t.Fatal("HasBlackhole = false")
	}
	if !cs.Contains(MakeCommunity(0, 64501)) {
		t.Fatal("Contains known member = false")
	}
	if cs.Contains(NoExport) {
		t.Fatal("Contains absent member = true")
	}
	var empty Communities
	if empty.HasBlackhole() {
		t.Fatal("empty list has blackhole")
	}
}

func TestCommunitiesClone(t *testing.T) {
	cs := Communities{Blackhole, NoExport}
	c2 := cs.Clone()
	c2[0] = 0
	if cs[0] != Blackhole {
		t.Fatal("Clone shares backing array")
	}
	if Communities(nil).Clone() != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestCommunitiesString(t *testing.T) {
	cs := Communities{Blackhole, MakeCommunity(64500, 1)}
	if got := cs.String(); got != "65535:666 64500:1" {
		t.Fatalf("String = %q", got)
	}
}
