package scenario

import (
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/stats"
)

// Federation is the deterministic member-to-exchange assignment of a
// multi-IXP run. The world itself is planned once, independent of the
// exchange count; the federation only decides where each member — and
// with it each control message and packet batch — is observed. Member i
// homes at IXP i mod N, so disjoint member subsets per exchange.
type Federation struct {
	W *World
	// N is the number of exchanges (>= 1).
	N int
	// ClockOffsets[i] is IXP i's data-plane clock skew: the base config
	// offset plus i*IXPClockSkewStep. IXP 0 always keeps the base.
	ClockOffsets []time.Duration

	home  map[uint32]int
	multi map[uint32]bool
}

// PlanFederation derives the federation of the planned world from its
// config: home assignments for every member, per-IXP clock offsets, and
// the deterministic multi-homed member selection (seed-derived, so the
// same world always federates identically).
func PlanFederation(w *World) *Federation {
	n := max(w.Cfg.IXPs, 1)
	fed := &Federation{
		W:            w,
		N:            n,
		ClockOffsets: make([]time.Duration, n),
		home:         make(map[uint32]int, len(w.Members)),
		multi:        make(map[uint32]bool),
	}
	for i := range fed.ClockOffsets {
		fed.ClockOffsets[i] = w.Cfg.ClockOffset + time.Duration(i)*w.Cfg.IXPClockSkewStep
	}
	for i, m := range w.Members {
		fed.home[m.ASN] = i % n
	}
	if n > 1 && w.Cfg.MultiHomedShare > 0 {
		// Candidates are the members that anchor traffic: the peers
		// announcing victim prefixes. Selection draws from a dedicated
		// seed fork in sorted ASN order, so it is stable across runs and
		// independent of everything else the seed drives.
		seen := make(map[uint32]bool)
		var peers []uint32
		for _, v := range w.VictimASes {
			if !seen[v.Peer] {
				seen[v.Peer] = true
				peers = append(peers, v.Peer)
			}
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		r := stats.NewRNG(w.Cfg.Seed ^ 0xfed)
		for _, p := range peers {
			if r.Bool(w.Cfg.MultiHomedShare) {
				fed.multi[p] = true
			}
		}
	}
	return fed
}

// Home returns the exchange a member connects to (its only one unless
// multi-homed). Unknown ASNs map to IXP 0.
func (f *Federation) Home(asn uint32) int { return f.home[asn] }

// MultiHomedMembers returns the sorted ASNs of all multi-homed members.
func (f *Federation) MultiHomedMembers() []uint32 {
	out := make([]uint32, 0, len(f.multi))
	for asn := range f.multi {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DispatchIXP decides which exchange observes a batch: the owner
// member's home, except that a multi-homed owner's traffic splits
// deterministically between home and secondary by a hash of the flow
// endpoints and the 5-minute slot — coarse enough that a given
// src/dst pair sticks to one exchange within a slot, as real ingress
// selection does.
func (f *Federation) DispatchIXP(b *fabric.Batch) int {
	h := f.home[b.Owner]
	if !f.multi[b.Owner] {
		return h
	}
	x := uint64(b.DstIP)<<32 | uint64(b.SrcIP)
	x ^= uint64(b.Time.Unix()/300) * 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	if x&1 == 1 {
		return (h + 1) % f.N
	}
	return h
}

// Route returns the executor that fans Drive's total event order out
// across the per-exchange executors: control messages to the announcing
// member's home exchange, batches wherever DispatchIXP anchors them. A
// single exchange needs no routing and is returned as is.
func (f *Federation) Route(exs []Executor) Executor {
	if f.N == 1 {
		return exs[0]
	}
	return router{fed: f, exs: exs}
}

type router struct {
	fed *Federation
	exs []Executor
}

func (r router) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	return r.exs[r.fed.Home(peerAS)].Control(ts, peerAS, upd)
}

func (r router) Inject(b *fabric.Batch) error {
	return r.exs[r.fed.DispatchIXP(b)].Inject(b)
}
