// Package ip2as provides longest-prefix-match IP-to-origin-AS mapping.
// The paper determines the origin AS of attack sources ("the AS hosting
// the amplifier", §5.5) and of blackholed hosts (§6.2) from routing data;
// this package is that lookup, fed from the simulator's address plan and
// serialized alongside the datasets.
package ip2as

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/bgp"
)

// Entry maps one prefix to its origin AS.
type Entry struct {
	Prefix string `json:"prefix"`
	ASN    uint32 `json:"asn"`
}

// Table performs longest-prefix-match lookups. Build with Add, then call
// Lookup; Add and Lookup may be interleaved. The zero value is empty and
// usable.
type Table struct {
	// asn maps a packed prefix (see pkey) to its origin AS; integer keys
	// take the runtime's specialized hash path, and Lookup runs once per
	// amplification record of the streaming pass.
	asn map[uint64]uint32
	// lens lists the distinct prefix lengths present, descending, so a
	// lookup probes only lengths that can match.
	lens []uint8
}

// New returns an empty table.
func New() *Table { return &Table{} }

func pkey(p bgp.Prefix) uint64 { return uint64(p.Addr)<<8 | uint64(p.Len) }

// Add inserts prefix -> asn, replacing any existing identical prefix.
func (t *Table) Add(p bgp.Prefix, asn uint32) {
	if t.asn == nil {
		t.asn = make(map[uint64]uint32)
	}
	t.asn[pkey(p)] = asn
	i := sort.Search(len(t.lens), func(i int) bool { return t.lens[i] <= p.Len })
	if i == len(t.lens) || t.lens[i] != p.Len {
		t.lens = append(t.lens, 0)
		copy(t.lens[i+1:], t.lens[i:])
		t.lens[i] = p.Len
	}
}

// Lookup returns the origin AS of the longest prefix covering addr, or
// (0, false) when no prefix matches.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	for _, l := range t.lens {
		if asn, ok := t.asn[pkey(bgp.MakePrefix(addr, l))]; ok {
			return asn, true
		}
	}
	return 0, false
}

// Entries returns all entries sorted by (address, length).
func (t *Table) Entries() []Entry {
	keys := make([]uint64, 0, len(t.asn))
	for k := range t.asn {
		keys = append(keys, k)
	}
	// The packed key orders by address, then length.
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Entry, len(keys))
	for i, k := range keys {
		p := bgp.Prefix{Addr: uint32(k >> 8), Len: uint8(k)}
		out[i] = Entry{Prefix: p.String(), ASN: t.asn[k]}
	}
	return out
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Entries())
}

// ReadJSON parses a table written by WriteJSON. It reads exactly that
// shape: one array of objects, each with the keys "prefix" and "asn" once
// and in either order, a CIDR prefix string without escapes and a
// decimal ASN within uint32, and JSON whitespace anywhere between tokens.
// Anything else — an unknown, missing or repeated key, an escaped string,
// a number that is negative, fractional or too large, trailing data — is
// an error.
func ReadJSON(r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ip2as: %w", err)
	}
	sc := scanner{s: string(data)}
	// Every '{' of a valid table opens one entry.
	t := &Table{asn: make(map[uint64]uint32, strings.Count(sc.s, "{"))}
	if err := sc.table(t); err != nil {
		return nil, fmt.Errorf("ip2as: offset %d: %w", sc.i, err)
	}
	return t, nil
}

// scanner reads the JSON that WriteJSON writes, token by token.
type scanner struct {
	s string
	i int // offset of the next unread byte
}

// ws skips JSON whitespace.
func (sc *scanner) ws() {
	for sc.i < len(sc.s) && (sc.s[sc.i] == ' ' || sc.s[sc.i] == '\t' || sc.s[sc.i] == '\n' || sc.s[sc.i] == '\r') {
		sc.i++
	}
}

// eat skips whitespace and consumes c if it comes next.
func (sc *scanner) eat(c byte) bool {
	sc.ws()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// expect is eat that fails when c does not come next.
func (sc *scanner) expect(c byte) error {
	if !sc.eat(c) {
		return fmt.Errorf("want %q", c)
	}
	return nil
}

// table reads the entry array into t, and then the end of the input.
func (sc *scanner) table(t *Table) error {
	if err := sc.expect('['); err != nil {
		return err
	}
	if !sc.eat(']') {
		for {
			p, asn, err := sc.entry()
			if err != nil {
				return err
			}
			t.Add(p, asn)
			if sc.eat(']') {
				break
			}
			if err := sc.expect(','); err != nil {
				return err
			}
		}
	}
	if sc.ws(); sc.i != len(sc.s) {
		return errors.New("trailing data")
	}
	return nil
}

// entry reads one {"prefix": ..., "asn": ...} object.
func (sc *scanner) entry() (bgp.Prefix, uint32, error) {
	var (
		p                   bgp.Prefix
		asn                 uint32
		seenPrefix, seenASN bool
	)
	if err := sc.expect('{'); err != nil {
		return p, 0, err
	}
	for k := 0; k < 2; k++ {
		if k == 1 && !sc.eat(',') {
			missing := "asn"
			if !seenPrefix {
				missing = "prefix"
			}
			return p, 0, fmt.Errorf("entry without %q", missing)
		}
		key, err := sc.str()
		if err == nil {
			err = sc.expect(':')
		}
		switch {
		case err != nil:
		case key == "prefix" && !seenPrefix:
			seenPrefix = true
			var s string
			if s, err = sc.str(); err == nil {
				p, err = bgp.ParsePrefix(s)
			}
		case key == "asn" && !seenASN:
			seenASN = true
			asn, err = sc.uint32()
		case key == "prefix" || key == "asn":
			err = fmt.Errorf("duplicate key %q", key)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return p, 0, err
		}
	}
	return p, asn, sc.expect('}')
}

// str reads a string without escapes and returns its contents.
func (sc *scanner) str() (string, error) {
	if err := sc.expect('"'); err != nil {
		return "", err
	}
	for j := sc.i; j < len(sc.s); j++ {
		switch c := sc.s[j]; {
		case c == '"':
			s := sc.s[sc.i:j]
			sc.i = j + 1
			return s, nil
		case c == '\\':
			return "", errors.New("escaped string")
		case c < 0x20:
			return "", errors.New("control character in string")
		}
	}
	return "", errors.New("unterminated string")
}

// uint32 reads a JSON integer within uint32: digits without a leading
// zero, no sign, fraction or exponent.
func (sc *scanner) uint32() (uint32, error) {
	sc.ws()
	j, v := sc.i, uint64(0)
	for ; j < len(sc.s) && '0' <= sc.s[j] && sc.s[j] <= '9'; j++ {
		if v = v*10 + uint64(sc.s[j]-'0'); v > math.MaxUint32 {
			return 0, errors.New("ASN out of range")
		}
	}
	switch {
	case j == sc.i:
		return 0, errors.New("want an ASN")
	case sc.s[sc.i] == '0' && j > sc.i+1:
		return 0, errors.New("ASN with a leading zero")
	case j < len(sc.s) && (sc.s[j] == '.' || sc.s[j] == 'e' || sc.s[j] == 'E'):
		return 0, errors.New("ASN is not an integer")
	}
	sc.i = j
	return uint32(v), nil
}
