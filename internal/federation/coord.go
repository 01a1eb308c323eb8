package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/events"
	"repro/internal/analysis/pipeline"
	"repro/internal/bgp"
	"repro/internal/ipfix"
)

// Coordinator collects per-IXP snapshots and merges them. Offer is safe
// for concurrent use (the TCP transport calls it from accept
// goroutines); Merge reads a consistent copy under the same lock.
type Coordinator struct {
	meta  *analysis.Metadata
	delta time.Duration

	mu    sync.Mutex
	snaps map[int]*Snapshot
}

// NewCoordinator creates a coordinator for exchanges sharing the member
// universe described by meta. delta is the event merge threshold, which
// must match the one the instances analyzed with.
func NewCoordinator(meta *analysis.Metadata, delta time.Duration) *Coordinator {
	return &Coordinator{meta: meta, delta: delta, snaps: make(map[int]*Snapshot)}
}

// Offer records a snapshot. For repeated offerings from the same
// exchange the highest Seq wins, so duplicated or reordered transmits
// converge on the freshest state. Reports whether the snapshot was
// kept.
func (c *Coordinator) Offer(s *Snapshot) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.snaps[s.IXP]; ok && cur.Seq >= s.Seq {
		return false
	}
	c.snaps[s.IXP] = s
	return true
}

// OfferBytes decodes and offers one snapshot frame (the transport
// server's receive path).
func (c *Coordinator) OfferBytes(data []byte) error {
	s := &Snapshot{}
	if err := s.UnmarshalBinary(data); err != nil {
		return err
	}
	c.Offer(s)
	return nil
}

// Snapshots returns the number of exchanges heard from.
func (c *Coordinator) Snapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snaps)
}

// IXPView is one exchange's decoded state within a merge: its own
// control plane, events, and pipeline (local event numbering), plus the
// mapping into the union numbering.
type IXPView struct {
	IXP         int
	Seq         uint64
	ClockOffset time.Duration
	Updates     []analysis.ControlUpdate
	Events      []*events.Event
	Index       *events.Index
	// Pipeline is the exchange's finalized state bound to its local
	// control plane — compose a per-IXP report from it directly.
	Pipeline *pipeline.Pipeline
	// EventToUnion maps local event IDs to union event IDs.
	EventToUnion map[int]int

	unionIDs map[int]bool
}

// LocalRTBH reports whether the union event was signaled at this
// exchange (every event lives at exactly one exchange — its announcing
// member's home).
func (v *IXPView) LocalRTBH(unionEventID int) bool { return v.unionIDs[unionEventID] }

// MergedState is the outcome of a federation merge: the union control
// plane, the folded global pipeline bound to it, and the per-IXP views.
type MergedState struct {
	Meta    *analysis.Metadata
	Updates []analysis.ControlUpdate
	Events  []*events.Event
	Index   *events.Index
	// Pipeline is the global folded state in union event numbering,
	// bound to the union control plane.
	Pipeline *pipeline.Pipeline
	// IXPs lists the per-exchange views, sorted by exchange index.
	IXPs []*IXPView
}

// eventKey identifies an event across numberings: a (prefix, peer)
// stream plus the first-announce instant. Event merging is a pure
// per-stream function of the updates, and every stream's updates live
// wholly at the announcing member's home exchange, so a local event and
// its union counterpart agree on all three.
type eventKey struct {
	prefix bgp.Prefix
	peer   uint32
	start  int64
}

// Merge decodes every offered snapshot, rebuilds the union control
// plane, rewrites local event IDs into the union numbering, and folds
// the per-IXP pipelines into one global pipeline.
func (c *Coordinator) Merge() (*MergedState, error) {
	c.mu.Lock()
	snaps := make([]*Snapshot, 0, len(c.snaps))
	for _, s := range c.snaps {
		snaps = append(snaps, s)
	}
	c.mu.Unlock()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("federation: no snapshots to merge")
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].IXP < snaps[j].IXP })

	var union []analysis.ControlUpdate
	for _, s := range snaps {
		union = append(union, s.Updates...)
	}
	analysis.SortUpdates(union)
	unionEvents := events.Merge(union, c.delta, c.meta.End)
	unionIndex := events.NewIndex(unionEvents, c.meta.End)
	byKey := make(map[eventKey]int, len(unionEvents))
	for _, e := range unionEvents {
		byKey[eventKey{prefix: e.Prefix, peer: e.Peer, start: e.Start().UnixNano()}] = e.ID
	}

	m := &MergedState{
		Meta:    c.meta,
		Updates: union,
		Events:  unionEvents,
		Index:   unionIndex,
	}
	for _, s := range snaps {
		v := &IXPView{
			IXP:         s.IXP,
			Seq:         s.Seq,
			ClockOffset: s.ClockOffset,
			Updates:     s.Updates,
		}
		v.Events = events.Merge(s.Updates, c.delta, c.meta.End)
		v.Index = events.NewIndex(v.Events, c.meta.End)

		p, err := pipeline.UnmarshalState(c.meta, s.State)
		if err != nil {
			return nil, fmt.Errorf("federation: IXP %d: %w", s.IXP, err)
		}
		p.Rebind(v.Events, v.Index)
		// Live instances ship finalized state; tolerate one that did not.
		p.Finalize()
		v.Pipeline = p

		v.EventToUnion = make(map[int]int, len(v.Events))
		v.unionIDs = make(map[int]bool, len(v.Events))
		for _, e := range v.Events {
			uid, ok := byKey[eventKey{prefix: e.Prefix, peer: e.Peer, start: e.Start().UnixNano()}]
			if !ok {
				return nil, fmt.Errorf("federation: IXP %d: local event %d (%s via AS%d) has no union counterpart",
					s.IXP, e.ID, e.Prefix, e.Peer)
			}
			v.EventToUnion[e.ID] = uid
			v.unionIDs[uid] = true
		}

		folded := p.Clone()
		if err := folded.RemapEvents(v.EventToUnion); err != nil {
			return nil, fmt.Errorf("federation: IXP %d: %w", s.IXP, err)
		}
		if m.Pipeline == nil {
			m.Pipeline = folded
		} else {
			m.Pipeline.Fold(folded)
		}
		m.IXPs = append(m.IXPs, v)
	}
	m.Pipeline.Rebind(unionEvents, unionIndex)
	return m, nil
}

// FlowSource re-streams one exchange's sampled flow records, batch by
// batch. The batch path re-opens the IPFIX archive; a live deployment
// would replay its local spool.
type FlowSource func(fn ipfix.BatchSink) error

// IXPEventTraffic is one exchange's during-event traffic for one union
// event.
type IXPEventTraffic struct {
	IXP int
	// DroppedPkts and ForwardedPkts count sampled during-event packets
	// toward the blackholed destination by forwarding outcome.
	DroppedPkts, ForwardedPkts int64
	// LocalRTBH reports whether the event was signaled at this exchange.
	LocalRTBH bool
}

// EventCross is the cross-exchange join of one union event: who saw its
// traffic, who dropped, who kept delivering.
type EventCross struct {
	EventID int
	Prefix  bgp.Prefix
	Peer    uint32
	// IXPs lists exchanges with during-event traffic, sorted by index.
	IXPs []IXPEventTraffic
	// ForeignDelivered is the share of the event's sampled packets
	// delivered at exchanges that never saw its RTBH signal — traffic
	// the blackholing member believed dropped.
	ForeignDelivered float64
}

// CrossView quantifies the federation's blind spot: attack traffic that
// one exchange blackholes while another still delivers it.
type CrossView struct {
	// Events lists per-event joins for events with any during-event
	// traffic, sorted by event ID.
	Events []EventCross
	// LeakedEvents counts events dropped at their signaling exchange
	// while a non-signaling exchange delivered their traffic.
	LeakedEvents int
	// DroppedPkts totals during-event drops at signaling exchanges;
	// ForeignPkts totals during-event deliveries at non-signaling
	// exchanges; ForeignShare is ForeignPkts over their sum.
	DroppedPkts  int64
	ForeignPkts  int64
	ForeignShare float64
}

// Cross re-streams each exchange's flow records against the union event
// structure. sources maps exchange index to its flow stream; exchanges
// without a source are skipped (their column is simply absent).
func (m *MergedState) Cross(sources map[int]FlowSource) (*CrossView, error) {
	type cell struct{ dropped, forwarded int64 }
	perEvent := make(map[int]map[int]*cell) // event ID -> IXP -> counts

	ixps := make([]int, 0, len(sources))
	for i := range sources {
		ixps = append(ixps, i)
	}
	sort.Ints(ixps)
	for _, ixp := range ixps {
		err := sources[ixp](func(b *ipfix.RecordBatch) error {
			for i := range b.Recs {
				rec := &b.Recs[i]
				if m.Meta.IsInternal(rec) {
					continue
				}
				match := m.Index.Lookup(rec.DstIP, rec.Start)
				if match.Event == nil || !match.Active {
					continue
				}
				byIXP := perEvent[match.Event.ID]
				if byIXP == nil {
					byIXP = make(map[int]*cell)
					perEvent[match.Event.ID] = byIXP
				}
				cl := byIXP[ixp]
				if cl == nil {
					cl = &cell{}
					byIXP[ixp] = cl
				}
				if rec.DstMAC == m.Meta.BlackholeMAC {
					cl.dropped += int64(rec.Packets)
				} else {
					cl.forwarded += int64(rec.Packets)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("federation: cross scan of IXP %d: %w", ixp, err)
		}
	}

	local := make(map[int]func(int) bool, len(m.IXPs)) // IXP -> LocalRTBH
	for _, v := range m.IXPs {
		local[v.IXP] = v.LocalRTBH
	}

	cv := &CrossView{}
	ids := make([]int, 0, len(perEvent))
	for id := range perEvent {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := m.Events[id]
		ec := EventCross{EventID: id, Prefix: e.Prefix, Peer: e.Peer}
		var total, foreign, droppedLocal int64
		leaked := false
		for _, ixp := range ixps {
			cl := perEvent[id][ixp]
			if cl == nil {
				continue
			}
			isLocal := local[ixp] != nil && local[ixp](id)
			ec.IXPs = append(ec.IXPs, IXPEventTraffic{
				IXP: ixp, DroppedPkts: cl.dropped, ForwardedPkts: cl.forwarded,
				LocalRTBH: isLocal,
			})
			total += cl.dropped + cl.forwarded
			if isLocal {
				droppedLocal += cl.dropped
			} else {
				foreign += cl.forwarded
			}
		}
		if total > 0 {
			ec.ForeignDelivered = float64(foreign) / float64(total)
		}
		if droppedLocal > 0 && foreign > 0 {
			leaked = true
		}
		if leaked {
			cv.LeakedEvents++
		}
		cv.DroppedPkts += droppedLocal
		cv.ForeignPkts += foreign
		cv.Events = append(cv.Events, ec)
	}
	if s := cv.DroppedPkts + cv.ForeignPkts; s > 0 {
		cv.ForeignShare = float64(cv.ForeignPkts) / float64(s)
	}
	return cv, nil
}
