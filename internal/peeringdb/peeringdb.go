// Package peeringdb provides a PeeringDB-like registry of autonomous
// systems: organization type and scope per ASN. The paper consults
// PeeringDB to characterize the ASes behind blackholed hosts (Table 4) and
// the top traffic sources toward /32 blackholes (Fig 8).
//
// The registry is synthetic — the real PeeringDB is an online service —
// but carries the same schema and the same coarse marginals, which is all
// the analysis consumes. It serializes to JSON so that simulator output
// directories are self-contained.
package peeringdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// OrgType is the PeeringDB "info_type" organization classification.
type OrgType string

// Organization types as used by the paper's Table 4 and Fig 8.
const (
	TypeNSP        OrgType = "NSP"
	TypeContent    OrgType = "Content"
	TypeCableDSL   OrgType = "Cable/DSL/ISP"
	TypeEnterprise OrgType = "Enterprise"
	TypeEducation  OrgType = "Educational/Research"
	TypeNonProfit  OrgType = "Non-Profit"
	TypeUnknown    OrgType = "Unknown" // AS not present in PeeringDB
)

// Scope is the PeeringDB geographic scope of a network.
type Scope string

// Geographic scopes.
const (
	ScopeGlobal   Scope = "Global"
	ScopeRegional Scope = "Regional"
	ScopeEurope   Scope = "Europe"
	ScopeLocal    Scope = "Local"
	ScopeUnknown  Scope = "Unknown"
)

// Network is one registry entry.
type Network struct {
	ASN  uint32  `json:"asn"`
	Name string  `json:"name"`
	Type OrgType `json:"type"`
	Scp  Scope   `json:"scope"`
}

// Registry maps ASNs to their metadata. The zero value is empty and
// usable; lookups of unregistered ASNs return TypeUnknown/ScopeUnknown,
// mirroring how real analyses treat ASes absent from PeeringDB.
type Registry struct {
	networks map[uint32]Network
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{networks: make(map[uint32]Network)}
}

// Add registers or replaces an entry.
func (r *Registry) Add(n Network) {
	if r.networks == nil {
		r.networks = make(map[uint32]Network)
	}
	r.networks[n.ASN] = n
}

// Lookup returns the entry for asn. Unregistered ASNs yield a synthetic
// entry with TypeUnknown and ok == false.
func (r *Registry) Lookup(asn uint32) (Network, bool) {
	if n, ok := r.networks[asn]; ok {
		return n, true
	}
	return Network{ASN: asn, Type: TypeUnknown, Scp: ScopeUnknown}, false
}

// TypeOf returns the organization type for asn (TypeUnknown if absent).
func (r *Registry) TypeOf(asn uint32) OrgType {
	n, _ := r.Lookup(asn)
	return n.Type
}

// All returns all entries sorted by ASN.
func (r *Registry) All() []Network {
	out := make([]Network, 0, len(r.networks))
	for _, n := range r.networks {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// WriteJSON serializes the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.All())
}

// ReadJSON parses a registry written by WriteJSON.
func ReadJSON(rd io.Reader) (*Registry, error) {
	var entries []Network
	if err := json.NewDecoder(rd).Decode(&entries); err != nil {
		return nil, fmt.Errorf("peeringdb: %w", err)
	}
	r := New()
	for _, n := range entries {
		r.Add(n)
	}
	return r, nil
}
