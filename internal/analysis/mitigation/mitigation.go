// Package mitigation measures fine-grained (FlowSpec) mitigation against
// RTBH on the same traffic — the paper's Table 5 question turned into a
// real experiment: per mitigation type, how much attack traffic is
// discarded and how much legitimate traffic dies with it.
//
// The aggregator consumes records destined to a mitigated prefix; the
// pipeline attributes each record to a phase (an active RTBH episode or
// an installed FlowSpec window, the latter winning when both cover the
// record) and classifies it as attack or legitimate by the reflection
// signature: UDP with a known amplification service source port
// (netgen.IsAmplificationPort, the same catalog the protocol-mix
// analysis uses). Dropped means the record's destination MAC was the
// blackhole MAC — under RTBH because the whole prefix is discarded,
// under FlowSpec because a discard rule matched the packet header.
package mitigation

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/netgen"
)

// Phase is the mitigation mechanism a record was observed under.
type Phase uint8

const (
	// PhaseRTBH: an RTBH episode (announced, not withdrawn) covered the
	// destination.
	PhaseRTBH Phase = iota
	// PhaseFlowSpec: an installed FlowSpec discard window covered the
	// destination.
	PhaseFlowSpec
	numPhases
)

// String names the phase as the reports render it.
func (p Phase) String() string {
	switch p {
	case PhaseRTBH:
		return "rtbh"
	case PhaseFlowSpec:
		return "flowspec"
	default:
		return "unknown"
	}
}

// cells is one mitigated prefix's tally: per phase, attack and
// legitimate traffic separately.
type cells struct {
	attack [numPhases]analysis.Counter
	legit  [numPhases]analysis.Counter
}

func (cs *cells) merge(o *cells) {
	for p := range cs.attack {
		cs.attack[p].Merge(&o.attack[p])
		cs.legit[p].Merge(&o.legit[p])
	}
}

// Aggregator accumulates the mitigation comparison from the streaming
// pass, keyed by the mitigated destination prefix. Prefix keying (rather
// than event IDs) keeps the operator independent of the RTBH event
// numbering — FlowSpec-only mitigations never appear in the merged RTBH
// event structure at all.
type Aggregator struct {
	byPrefix map[bgp.Prefix]*cells

	// lastPrefix/lastCells memoize the most recent Add: records under a
	// mitigation arrive in long same-prefix runs, so the composite-key
	// map probe resolves once per run.
	lastPrefix bgp.Prefix
	lastCells  *cells
}

// New returns an empty aggregator.
func New() *Aggregator {
	return &Aggregator{byPrefix: make(map[bgp.Prefix]*cells)}
}

// Add records one sampled packet observed under an active mitigation of
// the given phase for prefix. proto and srcPort classify it as attack
// (reflected amplification traffic) or legitimate; dropped is the
// blackhole-MAC outcome.
func (a *Aggregator) Add(prefix bgp.Prefix, phase Phase, proto uint8, srcPort uint16, dropped bool, pkts, bytes int64) {
	if phase >= numPhases {
		return
	}
	cs := a.lastCells
	if cs == nil || a.lastPrefix != prefix {
		cs = a.byPrefix[prefix]
		if cs == nil {
			cs = &cells{}
			a.byPrefix[prefix] = cs
		}
		a.lastPrefix, a.lastCells = prefix, cs
	}
	if netgen.IsAmplificationPort(proto, srcPort) {
		cs.attack[phase].Add(dropped, pkts, bytes)
	} else {
		cs.legit[phase].Add(dropped, pkts, bytes)
	}
}

// Merge folds o's tallies into a (commutative and associative: any split
// of a stream merges into exactly the state one pass leaves). o must not
// be used afterwards: a may adopt its internal structures.
func (a *Aggregator) Merge(o *Aggregator) {
	for p, oc := range o.byPrefix {
		if cs := a.byPrefix[p]; cs != nil {
			cs.merge(oc)
		} else {
			a.byPrefix[p] = oc
		}
	}
	// Adoption may have replaced the memoized entry.
	a.lastCells = nil
}

// Snapshot returns an independent deep copy of the aggregator (Operator
// contract in internal/analysis).
func (a *Aggregator) Snapshot() *Aggregator {
	s := New()
	for p, cs := range a.byPrefix {
		cp := *cs
		s.byPrefix[p] = &cp
	}
	return s
}

// Prefixes returns the number of mitigated prefixes with traffic.
func (a *Aggregator) Prefixes() int { return len(a.byPrefix) }

// PhaseStat is one mitigation type's aggregate outcome — one row of the
// reproduced Table 5.
type PhaseStat struct {
	Phase  Phase
	Attack analysis.Counter // reflected amplification traffic
	Legit  analysis.Counter // everything else toward the mitigated prefix
	// Prefixes counts mitigated prefixes with any traffic in this phase.
	Prefixes int
}

// PrefixStat is the per-victim-prefix detail behind the aggregate rows.
type PrefixStat struct {
	Prefix bgp.Prefix
	Attack [2]analysis.Counter // indexed by Phase
	Legit  [2]analysis.Counter
}

// Result is the composed mitigation comparison.
type Result struct {
	// Rows are the Table 5 aggregate rows, indexed by Phase.
	Rows [2]PhaseStat
	// ByPrefix is the per-prefix detail, sorted by (addr, len).
	ByPrefix []PrefixStat
}

// Measured reports whether any mitigated traffic was observed at all.
func (r *Result) Measured() bool {
	for i := range r.Rows {
		if r.Rows[i].Attack.TotalPkts()+r.Rows[i].Legit.TotalPkts() > 0 {
			return true
		}
	}
	return false
}

// Compose derives the Table 5 result from the accumulated state.
func (a *Aggregator) Compose() *Result {
	res := &Result{}
	for i := range res.Rows {
		res.Rows[i].Phase = Phase(i)
	}
	for _, p := range sortedPrefixes(a.byPrefix) {
		cs := a.byPrefix[p]
		ps := PrefixStat{Prefix: p}
		for ph := 0; ph < int(numPhases); ph++ {
			ps.Attack[ph] = cs.attack[ph]
			ps.Legit[ph] = cs.legit[ph]
			res.Rows[ph].Attack.Merge(&cs.attack[ph])
			res.Rows[ph].Legit.Merge(&cs.legit[ph])
			if cs.attack[ph].TotalPkts()+cs.legit[ph].TotalPkts() > 0 {
				res.Rows[ph].Prefixes++
			}
		}
		res.ByPrefix = append(res.ByPrefix, ps)
	}
	return res
}

// sortedPrefixes returns the map keys in canonical (addr, len) order.
func sortedPrefixes(m map[bgp.Prefix]*cells) []bgp.Prefix {
	out := make([]bgp.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}
