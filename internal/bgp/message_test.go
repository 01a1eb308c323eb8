package bgp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleUpdate() *Update {
	return &Update{
		Withdrawn: []Prefix{MustParsePrefix("198.51.100.0/24")},
		Attrs: PathAttrs{
			Origin:      OriginIGP,
			ASPath:      []uint32{64500, 65550, 4200000001},
			NextHop:     0xc0000201,
			Communities: Communities{Blackhole, MakeCommunity(64500, 64501), NoExport},
		},
		NLRI: []Prefix{MustParsePrefix("203.0.113.5/32"), MustParsePrefix("203.0.112.0/22")},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate()
	enc, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	typ, msg, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgUpdate || n != len(enc) {
		t.Fatalf("type=%d n=%d len=%d", typ, n, len(enc))
	}
	got := msg.(*Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Fatalf("withdrawn mismatch: %v", got.Withdrawn)
	}
	if len(got.NLRI) != 2 || got.NLRI[0] != u.NLRI[0] || got.NLRI[1] != u.NLRI[1] {
		t.Fatalf("NLRI mismatch: %v", got.NLRI)
	}
	if got.Attrs.Origin != OriginIGP {
		t.Fatalf("origin = %d", got.Attrs.Origin)
	}
	if len(got.Attrs.ASPath) != 3 || got.Attrs.ASPath[2] != 4200000001 {
		t.Fatalf("as path = %v", got.Attrs.ASPath)
	}
	if got.Attrs.NextHop != u.Attrs.NextHop {
		t.Fatalf("next hop = %#x", got.Attrs.NextHop)
	}
	if !got.Attrs.Communities.HasBlackhole() {
		t.Fatal("BLACKHOLE community lost")
	}
	if got.Attrs.OriginAS() != 4200000001 {
		t.Fatalf("origin AS = %d", got.Attrs.OriginAS())
	}
}

func TestWithdrawOnlyUpdate(t *testing.T) {
	u := &Update{Withdrawn: []Prefix{MustParsePrefix("203.0.113.5/32")}}
	enc, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Update)
	if len(got.NLRI) != 0 || len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Fatalf("round trip lost withdraw: %+v", got)
	}
}

func TestUpdateWithMEDAndLocalPref(t *testing.T) {
	u := sampleUpdate()
	u.Attrs.HasMED = true
	u.Attrs.MED = 77
	u.Attrs.HasLocalPref = true
	u.Attrs.LocalPref = 200
	enc, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Update)
	if !got.Attrs.HasMED || got.Attrs.MED != 77 {
		t.Fatalf("MED lost: %+v", got.Attrs)
	}
	if !got.Attrs.HasLocalPref || got.Attrs.LocalPref != 200 {
		t.Fatalf("LOCAL_PREF lost: %+v", got.Attrs)
	}
}

func TestUnknownAttrPreserved(t *testing.T) {
	u := sampleUpdate()
	u.Attrs.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Type: 42, Value: []byte{1, 2, 3}}}
	enc, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Update)
	if len(got.Attrs.Unknown) != 1 || got.Attrs.Unknown[0].Type != 42 ||
		!bytes.Equal(got.Attrs.Unknown[0].Value, []byte{1, 2, 3}) {
		t.Fatalf("unknown attribute not preserved: %+v", got.Attrs.Unknown)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{Version: 4, ASN: 23456, HoldTime: 90, RouterID: 0x0a000001}
	enc, err := EncodeOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	typ, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgOpen {
		t.Fatalf("type = %d", typ)
	}
	got := msg.(*Open)
	if *got != *o {
		t.Fatalf("got %+v want %+v", got, o)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	enc := EncodeKeepalive()
	typ, msg, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgKeepalive || msg != nil || n != headerLen {
		t.Fatalf("typ=%d msg=%v n=%d", typ, msg, n)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	nt := &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}
	enc, err := EncodeNotification(nt)
	if err != nil {
		t.Fatal(err)
	}
	_, msg, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Notification)
	if got.Code != 6 || got.Subcode != 2 || string(got.Data) != "bye" {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeRejectsBadMarker(t *testing.T) {
	enc := EncodeKeepalive()
	enc[3] = 0
	if _, _, _, err := DecodeMessage(enc); err == nil {
		t.Fatal("bad marker accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	enc, _ := EncodeUpdate(sampleUpdate())
	for cut := 1; cut < len(enc); cut += 7 {
		if _, _, _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsBadLengths(t *testing.T) {
	enc := EncodeKeepalive()
	enc[16], enc[17] = 0, 5 // length 5 < minimum
	if _, _, _, err := DecodeMessage(enc); err == nil {
		t.Fatal("undersized length accepted")
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	enc := EncodeKeepalive()
	enc[18] = 99
	if _, _, _, err := DecodeMessage(enc); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestDecodeUpdateRejectsMissingMandatoryAttrs(t *testing.T) {
	// An UPDATE with NLRI but a zero attribute block is invalid.
	body := []byte{0, 0, 0, 0, 32, 203, 0, 113, 5}
	if _, err := DecodeUpdate(body); err == nil {
		t.Fatal("UPDATE without mandatory attributes accepted")
	}
}

func TestDecodeUpdateRejectsOverflowingAttrLength(t *testing.T) {
	body := []byte{0, 0, 0, 200}
	if _, err := DecodeUpdate(body); err == nil {
		t.Fatal("attribute length overflow accepted")
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(addr uint32, lenRaw uint8, asns []uint32, comms []uint32, nextHop uint32) bool {
		if len(asns) == 0 {
			asns = []uint32{64500}
		}
		if len(asns) > 50 {
			asns = asns[:50]
		}
		cs := make(Communities, 0, len(comms))
		for _, c := range comms {
			cs = append(cs, Community(c))
		}
		u := &Update{
			Attrs: PathAttrs{
				Origin:      OriginIncomplete,
				ASPath:      asns,
				NextHop:     nextHop,
				Communities: cs,
			},
			NLRI: []Prefix{MakePrefix(addr, lenRaw%33)},
		}
		if nextHop == 0 && len(asns) == 0 {
			return true // indistinguishable from missing mandatory attrs
		}
		enc, err := EncodeUpdate(u)
		if err != nil {
			return false
		}
		_, msg, n, err := DecodeMessage(enc)
		if err != nil || n != len(enc) {
			return false
		}
		got := msg.(*Update)
		if len(got.NLRI) != 1 || got.NLRI[0] != u.NLRI[0] {
			return false
		}
		if len(got.Attrs.ASPath) != len(asns) {
			return false
		}
		for i := range asns {
			if got.Attrs.ASPath[i] != asns[i] {
				return false
			}
		}
		if len(got.Attrs.Communities) != len(cs) {
			return false
		}
		for i := range cs {
			if got.Attrs.Communities[i] != cs[i] {
				return false
			}
		}
		return got.Attrs.NextHop == nextHop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
