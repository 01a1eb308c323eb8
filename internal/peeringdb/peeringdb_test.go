package peeringdb

import (
	"bytes"
	"testing"
)

func TestLookupRegisteredAndUnknown(t *testing.T) {
	r := New()
	r.Add(Network{ASN: 64500, Name: "ExampleNet", Type: TypeNSP, Scp: ScopeGlobal})

	n, ok := r.Lookup(64500)
	if !ok || n.Type != TypeNSP || n.Name != "ExampleNet" {
		t.Fatalf("Lookup registered = %+v, %v", n, ok)
	}
	n, ok = r.Lookup(1)
	if ok || n.Type != TypeUnknown || n.Scp != ScopeUnknown {
		t.Fatalf("Lookup unknown = %+v, %v", n, ok)
	}
	if r.TypeOf(1) != TypeUnknown {
		t.Fatal("TypeOf unknown != Unknown")
	}
}

func TestZeroValueRegistryUsable(t *testing.T) {
	var r Registry
	if _, ok := r.Lookup(5); ok {
		t.Fatal("zero registry claims to know AS 5")
	}
	r.Add(Network{ASN: 5, Type: TypeContent})
	if r.TypeOf(5) != TypeContent {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddReplaces(t *testing.T) {
	r := New()
	r.Add(Network{ASN: 10, Type: TypeContent})
	r.Add(Network{ASN: 10, Type: TypeNSP})
	if n := len(r.All()); n != 1 || r.TypeOf(10) != TypeNSP {
		t.Fatalf("replace failed: len=%d type=%s", n, r.TypeOf(10))
	}
}

func TestAllSorted(t *testing.T) {
	r := New()
	for _, asn := range []uint32{30, 10, 20} {
		r.Add(Network{ASN: asn})
	}
	all := r.All()
	if len(all) != 3 || all[0].ASN != 10 || all[2].ASN != 30 {
		t.Fatalf("All = %v", all)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add(Network{ASN: 64500, Name: "A", Type: TypeNSP, Scp: ScopeGlobal})
	r.Add(Network{ASN: 64501, Name: "B", Type: TypeCableDSL, Scp: ScopeLocal})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.All()); n != 2 {
		t.Fatalf("round trip lost entries: %d", n)
	}
	n, _ := got.Lookup(64501)
	if n.Type != TypeCableDSL || n.Scp != ScopeLocal || n.Name != "B" {
		t.Fatalf("entry mismatch: %+v", n)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
