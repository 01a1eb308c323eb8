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
	ClockOffset time.Duration
	Updates     []analysis.ControlUpdate
	Events      []*events.Event
	// Pipeline is the exchange's finalized state bound to its local
	// control plane — compose a per-IXP report from it directly.
	Pipeline *pipeline.Pipeline
	// EventToUnion maps local event IDs to union event IDs.
	EventToUnion map[int]int
}

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

	// home maps a union event ID to the position in IXPs of the exchange
	// that signaled it, -1 for none: every event lives at exactly one
	// exchange, its announcing member's home.
	home []int
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
		home:    make([]int, len(unionEvents)),
	}
	for i := range m.home {
		m.home[i] = -1
	}
	for x, s := range snaps {
		v := &IXPView{
			IXP:         s.IXP,
			ClockOffset: s.ClockOffset,
			Updates:     s.Updates,
		}
		v.Events = events.Merge(s.Updates, c.delta, c.meta.End)

		p, err := pipeline.UnmarshalState(c.meta, s.State, len(v.Events))
		if err != nil {
			return nil, fmt.Errorf("federation: IXP %d: %w", s.IXP, err)
		}
		p.Rebind(v.Events, events.NewIndex(v.Events, c.meta.End))
		// Live instances ship finalized state; tolerate one that did not.
		p.Finalize()
		v.Pipeline = p

		v.EventToUnion = make(map[int]int, len(v.Events))
		for _, e := range v.Events {
			uid, ok := byKey[eventKey{prefix: e.Prefix, peer: e.Peer, start: e.Start().UnixNano()}]
			if !ok {
				return nil, fmt.Errorf("federation: IXP %d: local event %d (%s via AS%d) has no union counterpart",
					s.IXP, e.ID, e.Prefix, e.Peer)
			}
			if h := m.home[uid]; h >= 0 {
				return nil, fmt.Errorf("federation: IXP %d: local event %d (%s via AS%d) was signaled at IXP %d too",
					s.IXP, e.ID, e.Prefix, e.Peer, m.IXPs[h].IXP)
			}
			v.EventToUnion[e.ID] = uid
			m.home[uid] = x
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
// structure, one source per entry of m.IXPs and in its order. A record
// counts toward the union event active at its destination and start, the
// attribution Pipeline.attribute makes, through the same events.Cursor.
func (m *MergedState) Cross(sources []pipeline.BatchSource) (*CrossView, error) {
	type cell struct {
		dropped, forwarded int64
		seen               bool // a record matched, even one of zero packets
	}
	n := len(m.IXPs)
	cells := make([]cell, len(m.Events)*n) // [event ID*n + position in m.IXPs]
	for x := range m.IXPs {
		cur := events.NewCursor(m.Index)
		err := sources[x](func(b *ipfix.RecordBatch) error {
			for i := range b.Recs {
				rec := &b.Recs[i]
				if m.Meta.IsInternal(rec) {
					continue
				}
				match := cur.LookupNs(rec.DstIP, rec.Start.UnixNano())
				if match.Event == nil || !match.Active {
					continue
				}
				cl := &cells[match.Event.ID*n+x]
				cl.seen = true
				if rec.DstMAC == m.Meta.BlackholeMAC {
					cl.dropped += int64(rec.Packets)
				} else {
					cl.forwarded += int64(rec.Packets)
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("federation: cross scan of IXP %d: %w", m.IXPs[x].IXP, err)
		}
	}

	cv := &CrossView{}
	for id, e := range m.Events {
		ec := EventCross{EventID: id, Prefix: e.Prefix, Peer: e.Peer}
		var total, foreign, droppedLocal int64
		for x, cl := range cells[id*n : (id+1)*n] {
			if !cl.seen {
				continue
			}
			isLocal := m.home[id] == x
			ec.IXPs = append(ec.IXPs, IXPEventTraffic{IXP: m.IXPs[x].IXP,
				DroppedPkts: cl.dropped, ForwardedPkts: cl.forwarded, LocalRTBH: isLocal})
			total += cl.dropped + cl.forwarded
			if isLocal {
				droppedLocal += cl.dropped
			} else {
				foreign += cl.forwarded
			}
		}
		if ec.IXPs == nil {
			continue
		}
		if total > 0 {
			ec.ForeignDelivered = float64(foreign) / float64(total)
		}
		if droppedLocal > 0 && foreign > 0 {
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
