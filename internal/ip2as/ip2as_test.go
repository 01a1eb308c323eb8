package ip2as

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
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

// randomTable builds a table of n random prefixes of random lengths.
func randomTable(rng *rand.Rand, n int) *Table {
	tb := New()
	for i := 0; i < n; i++ {
		tb.Add(bgp.MakePrefix(rng.Uint32(), uint8(rng.Intn(33))), rng.Uint32())
	}
	return tb
}

// TestReadJSONRoundTripRandom: whatever WriteJSON writes, ReadJSON reads
// back entry for entry, the empty table included.
func TestReadJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		tb := randomTable(rng, n)
		var buf bytes.Buffer
		if err := tb.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%d entries: %v", n, err)
		}
		if !reflect.DeepEqual(got.Entries(), tb.Entries()) {
			t.Fatalf("%d entries: round trip changed the table", n)
		}
	}
}

// TestReadJSONAcceptsLayout: either key order and any JSON whitespace
// between tokens read the same table.
func TestReadJSONAcceptsLayout(t *testing.T) {
	want := []Entry{{"10.0.0.0/8", 100}, {"203.0.113.0/24", 4294967295}}
	for _, in := range []string{
		`[{"prefix":"10.0.0.0/8","asn":100},{"prefix":"203.0.113.0/24","asn":4294967295}]`,
		`[{"asn":100,"prefix":"10.0.0.0/8"},{"prefix":"203.0.113.0/24","asn":4294967295}]`,
		" \t\r\n[ \n{ \"asn\" :\t100 ,\r\n\"prefix\"\n:\"10.0.0.0/8\" } ,\n\t{\"prefix\":\"203.0.113.0/24\",\"asn\":4294967295}\n]\n\n",
	} {
		tb, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if got := tb.Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: entries %v, want %v", in, got, want)
		}
	}
	tb, err := ReadJSON(strings.NewReader(" [ ] "))
	if err != nil || len(tb.Entries()) != 0 {
		t.Fatalf("empty table: %v, %v", tb.Entries(), err)
	}
}

// TestReadJSONRejectsOtherShapes: the reader takes what WriteJSON writes
// and nothing else.
func TestReadJSONRejectsOtherShapes(t *testing.T) {
	for _, in := range []string{
		``,
		`null`,
		`{}`,
		`[`,
		`[{"prefix":"10.0.0.0/8","asn":1},]`,
		`[{"prefix":"10.0.0.0/8","asn":4294967296}]`, // above MaxUint32
		`[{"prefix":"10.0.0.0/8","asn":99999999999999999999999}]`,
		`[{"prefix":"10.0.0.0/8","asn":-1}]`,  // negative
		`[{"prefix":"10.0.0.0/8","asn":1.0}]`, // fractional
		`[{"prefix":"10.0.0.0/8","asn":1e3}]`, // exponent
		`[{"prefix":"10.0.0.0/8","asn":01}]`,  // leading zero
		`[{"prefix":"10.0.0.0/8","asn":"1"}]`, // string ASN
		`[{"prefix":"10.0.0.0/8"}]`,           // missing asn
		`[{"asn":1}]`,                         // missing prefix
		`[{}]`,
		`[{"prefix":"10.0.0.0/8","prefix":"10.0.0.0/8"}]`, // duplicate key
		`[{"asn":1,"asn":2}]`,
		`[{"prefix":"10.0.0.0/8","asn":1,"asn":2}]`,
		`[{"prefix":"10.0.0.0/8","asn":1,"note":"x"}]`, // unknown key
		`[{"Prefix":"10.0.0.0/8","asn":1}]`,
		`[{"prefix":"10.0.0.0\/8","asn":1}]`, // escaped string
		`[{"pre\u0066ix":"10.0.0.0/8","asn":1}]`,
		`[{"prefix":"10.0.0.0/8","asn":1}]x`, // trailing data
		`[{"prefix":"10.0.0.0/8","asn":1}][]`,
		"[{\"prefix\":\"10.0.0.0/8\",\"asn\":1}]\x00",
		`[{"prefix":"10.0.0.0/8" "asn":1}]`,
		`[{"prefix":"10.0.0.0/8","asn":1} {"prefix":"10.0.0.0/8","asn":1}]`,
		`[{"prefix":"10.0.0.0/8","asn":1`,
		`[{"prefix":"10.0.0.0/8`,
		`[{"prefix":"","asn":1}]`,
		`[{"prefix":"10.0.0.1/8","asn":1}]`,                                 // host bits set
		`[{"prefix":"10.0.0.0/08","asn":1}]`,                                // leading zero
		`[{"prefix":"10.0.0.0/+8","asn":1}]`,                                // signed length
		`[{"prefix":"10.0.0.1","asn":1}]`,                                   // no length
		`[{"prefix":"10.0.0.0/8","asn":1},{"prefix":"10.0.0.0/8","asn":2}]`, // repeated prefix
	} {
		if tb, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%q accepted as %v", in, tb.Entries())
		}
	}
}

// FuzzReadJSON: the reader never panics, whatever it accepts
// encoding/json decodes to the same entries, and every prefix it accepts
// is spelled the one way WriteJSON writes it.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := randomTable(rand.New(rand.NewSource(2)), 5).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`[{"asn":7,"prefix":"10.1.2.3/8"}, {"prefix":"10.0.0.0/8","asn":9}]`))
	f.Add([]byte(` [ ] `))
	f.Add([]byte(`[{"prefix":"10.0.0.0/8","asn":4294967296}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var entries []Entry
		if err := json.Unmarshal(data, &entries); err != nil {
			t.Fatalf("ReadJSON accepted %q, encoding/json rejects it: %v", data, err)
		}
		ref := New()
		for _, e := range entries {
			p, err := bgp.ParsePrefix(e.Prefix)
			if err != nil {
				t.Fatalf("ReadJSON accepted prefix %q: %v", e.Prefix, err)
			}
			if e.Prefix != p.String() {
				t.Fatalf("ReadJSON accepted prefix %q, written %q", e.Prefix, p.String())
			}
			ref.Add(p, e.ASN)
		}
		if got, want := tb.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ReadJSON read %v, encoding/json %v", data, got, want)
		}
	})
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
