// Package ip2as provides longest-prefix-match IP-to-origin-AS mapping.
// The paper determines the origin AS of attack sources ("the AS hosting
// the amplifier", §5.5) and of blackholed hosts (§6.2) from routing data;
// this package is that lookup, fed from the simulator's address plan and
// serialized alongside the datasets.
package ip2as

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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
	// asn maps each prefix to its origin AS; Lookup runs once per
	// amplification record of the streaming pass.
	asn bgp.PrefixMap[uint32]
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Grow makes room for n more prefixes, so that as many Adds do not
// rehash.
func (t *Table) Grow(n int) { t.asn.Grow(n) }

// Add inserts prefix -> asn, replacing any existing identical prefix.
func (t *Table) Add(p bgp.Prefix, asn uint32) { t.asn.Set(p, asn) }

// Lookup returns the origin AS of the longest prefix covering addr, or
// (0, false) when no prefix matches.
func (t *Table) Lookup(addr uint32) (uint32, bool) {
	_, asn, ok := t.asn.Longest(addr)
	return asn, ok
}

// Entries returns all entries sorted by (address, length).
func (t *Table) Entries() []Entry {
	es := make([]bgp.PrefixEntry[uint32], 0, t.asn.Len())
	t.asn.Each(func(p bgp.Prefix, asn uint32) { es = append(es, bgp.PrefixEntry[uint32]{Prefix: p, Value: asn}) })
	// The packed key orders by address, then length.
	slices.SortFunc(es, func(a, b bgp.PrefixEntry[uint32]) int { return cmp.Compare(a.Prefix.Key(), b.Prefix.Key()) })
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = Entry{Prefix: e.Prefix.String(), ASN: e.Value}
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
// a prefix with address bits set beyond its length or listed twice, a
// number that is negative, fractional or too large, trailing data — is an
// error.
func ReadJSON(r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ip2as: %w", err)
	}
	sc := scanner{s: string(data)}
	// Every '{' of a valid table opens one entry.
	t := New()
	t.Grow(strings.Count(sc.s, "{"))
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
			n := t.asn.Len()
			if t.Add(p, asn); t.asn.Len() == n {
				return fmt.Errorf("duplicate prefix %s", p)
			}
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
			// WriteJSON writes the masked address and its length;
			// ParsePrefix also masks, and reads a bare address as a /32.
			if a, _, ok := strings.Cut(s, "/"); err == nil && !ok {
				err = fmt.Errorf("prefix %q has no length", s)
			} else if addr, _ := bgp.ParseAddr(a); err == nil && addr != p.Addr {
				err = fmt.Errorf("prefix %q has bits set beyond its length", s)
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
