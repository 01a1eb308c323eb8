// Package federation combines the measurements of several exchanges
// into one federated analysis. Each IXP instance — a batch pass over
// its archive, or a live online analyzer — reduces its observations to
// a compact Snapshot: its control-plane update stream plus the
// pipeline's marshaled operator state. A Coordinator collects the
// snapshots (in process, or over the TCP transport in transport.go),
// rebuilds the union control plane, rewrites every per-IXP event ID
// into the union numbering, and folds the operator states over the
// pipeline Merge contract into one global pipeline — plus per-IXP views
// and a cross-IXP traffic join that no single exchange can see (which
// attacks one exchange blackholed while another kept delivering them).
package federation

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
)

// snapshotWireVersion is the snapshot frame codec version.
const snapshotWireVersion = 1

// Snapshot is one exchange's reduced state offering.
type Snapshot struct {
	// IXP is the exchange index within the federation.
	IXP int
	// Seq orders repeated offerings from the same exchange: the
	// coordinator keeps the highest sequence number and discards the
	// rest, which makes blind retransmits over a lossy transport safe.
	Seq uint64
	// ClockOffset is the exchange's data-plane clock skew, carried for
	// reporting alongside the skew the analysis estimates back.
	ClockOffset time.Duration
	// Updates is the exchange's time-sorted control-plane stream.
	Updates []analysis.ControlUpdate
	// State is the exchange's pipeline state (pipeline.Pipeline.MarshalState).
	State []byte
}

// MarshalBinary encodes the snapshot.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(snapshotWireVersion)
	w.Uvarint(uint64(s.IXP))
	w.Uvarint(s.Seq)
	w.Varint(int64(s.ClockOffset))
	w.Uvarint(uint64(len(s.Updates)))
	for i := range s.Updates {
		u := &s.Updates[i]
		w.Varint(u.Time.UnixNano())
		w.Uvarint(uint64(u.Peer))
		w.Uvarint(uint64(u.Prefix.Addr))
		w.Byte(u.Prefix.Len)
		w.Bool(u.Announce)
		w.Uvarint(uint64(u.OriginAS))
		w.Uvarint(uint64(len(u.Communities)))
		for _, c := range u.Communities {
			w.Uvarint(uint64(c))
		}
	}
	w.Blob(s.State)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a snapshot frame, rejecting an update stream
// that steps back in time. On error the snapshot is left unchanged; the
// input slice is not retained.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(snapshotWireVersion)
	ixp := r.Int()
	seq := r.Uvarint()
	off := time.Duration(r.Varint())
	// Minimum update: time, peer, addr, len, announce, origin, 0 comms.
	n := r.Count(7)
	updates := make([]analysis.ControlUpdate, 0, n)
	for i := 0; i < n; i++ {
		t := time.Unix(0, r.Varint()).UTC()
		peer := r.U32()
		addr, plen := r.U32(), r.Byte()
		if plen > 32 {
			return fmt.Errorf("federation: snapshot: prefix length %d > 32", plen)
		}
		u := analysis.ControlUpdate{
			Time:     t,
			Peer:     peer,
			Prefix:   bgp.MakePrefix(addr, plen),
			Announce: r.Bool(),
			OriginAS: r.U32(),
		}
		nc := r.Count(1)
		if nc > 0 {
			u.Communities = make(bgp.Communities, 0, nc)
			for j := 0; j < nc; j++ {
				u.Communities = append(u.Communities, bgp.Community(r.U32()))
			}
		}
		if r.Err() != nil {
			break
		}
		if i > 0 && t.Before(updates[i-1].Time) {
			return fmt.Errorf("federation: snapshot: update %d at %v steps back from %v",
				i, t.Format(time.RFC3339Nano), updates[i-1].Time.Format(time.RFC3339Nano))
		}
		updates = append(updates, u)
	}
	state := r.Blob()
	if err := r.Done(); err != nil {
		return fmt.Errorf("federation: snapshot: %w", err)
	}
	s.IXP = ixp
	s.Seq = seq
	s.ClockOffset = off
	s.Updates = updates
	s.State = append([]byte(nil), state...)
	return nil
}
