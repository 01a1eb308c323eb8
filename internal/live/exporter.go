package live

import (
	"fmt"
	"net"

	"repro/internal/faultnet"
	"repro/internal/ipfix"
)

// exporter defaults.
const (
	// DefaultMTU bounds exported datagram size: a conservative path MTU
	// for loopback/LAN export (RFC 7011 §10.3.3 requires staying under
	// it, since IPFIX over UDP must not rely on fragmentation).
	DefaultMTU = 1400
	// templateEvery is how often (in messages) the template set is
	// re-sent. UDP delivery is unreliable, so templates repeat much more
	// often than in the file archive: a collector joining late or losing
	// the first datagram recovers within templateEvery messages.
	templateEvery = 32
)

// Exporter packs flow records into size-bounded IPFIX messages and sends
// each as one UDP datagram, with periodic template resends. Not
// goroutine-safe: the fabric emits records from the single driver
// goroutine.
type Exporter struct {
	conn    net.Conn
	enc     *ipfix.MsgEncoder
	pending []ipfix.FlowRecord
	perMsg  int
	msgs    int
	m       *Metrics

	// fault, when set, impairs every data datagram; every is the
	// template resend period (1 under a fault plan, so a dropped
	// template-bearing datagram can never strand later messages
	// undecodable — decode errors would break record-exact drop
	// accounting). lastExport is the last export timestamp emitted, for
	// Sync messages.
	fault      *faultnet.UDPSchedule
	every      int
	lastExport uint32
}

// NewExporter returns an exporter for observation domain id domain
// sending on conn (a connected UDP socket). mtu bounds the datagram
// size; 0 means DefaultMTU.
func NewExporter(conn net.Conn, domain uint32, mtu int, m *Metrics) (*Exporter, error) {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	// Reserve template space in every message so capacity is constant;
	// template-less messages just run slightly under the MTU.
	perMsg := ipfix.MaxRecords(mtu, true)
	if perMsg == 0 {
		return nil, fmt.Errorf("live: MTU %d fits no flow records", mtu)
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Exporter{
		conn:   conn,
		enc:    ipfix.NewMsgEncoder(domain),
		perMsg: perMsg,
		m:      m,
		every:  templateEvery,
	}, nil
}

// SetFault routes every data datagram through the impairment schedule
// and makes every message self-describing (template in each datagram):
// under injected loss a dropped template must never turn later messages
// into decode errors, or sequence-gap accounting would stop being exact.
// It immediately emits one impairment-exempt Sync so the collector pins
// the sequence origin before any fault can strike: otherwise a drop of
// the very first data datagrams would shift the collector's baseline
// and the leading gap could never be accounted.
// An inert schedule (the "none" profile) keeps the batch template
// cadence: no datagram can be lost, so per-message templates would only
// add overhead to what is meant to measure the inactive wrapper.
func (e *Exporter) SetFault(u *faultnet.UDPSchedule) error {
	e.fault = u
	if !u.Inert() {
		e.every = 1
	}
	return e.Sync()
}

// ExportBatch queues every record of b, sending a datagram whenever a
// message fills, so the datagram packing depends only on the record
// sequence, not on how it was cut into batches. It borrows b per the
// ipfix.RecordBatch contract.
func (e *Exporter) ExportBatch(b *ipfix.RecordBatch) error {
	recs := b.Recs
	for len(recs) > 0 {
		room := e.perMsg - len(e.pending)
		if room > len(recs) {
			room = len(recs)
		}
		e.pending = append(e.pending, recs[:room]...)
		recs = recs[room:]
		if len(e.pending) >= e.perMsg {
			if err := e.emit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush sends any partially filled message.
func (e *Exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	return e.emit()
}

// Sync transmits an empty, template-bearing message carrying the current
// sequence number, bypassing the impairment schedule (after releasing
// any datagram it still holds for reordering). A tail drop leaves no
// later message to reveal the sequence gap, so without Sync the
// collector could never account the loss and drain would hang; the
// runner retries Sync while draining under a fault plan.
func (e *Exporter) Sync() error {
	if e.fault != nil {
		if err := e.fault.Flush(e.rawWrite); err != nil {
			return fmt.Errorf("live: sync flush: %w", err)
		}
	}
	if err := e.rawWrite(e.enc.Encode(nil, true, e.lastExport)); err != nil {
		return fmt.Errorf("live: sync: %w", err)
	}
	e.m.SyncMsgs.Inc()
	return nil
}

func (e *Exporter) rawWrite(b []byte) error {
	_, err := e.conn.Write(b)
	return err
}

func (e *Exporter) emit() error {
	includeTemplate := e.msgs%e.every == 0
	e.msgs++
	exportTime := uint32(e.pending[len(e.pending)-1].Start.Unix())
	e.lastExport = exportTime
	msg := e.enc.Encode(e.pending, includeTemplate, exportTime)
	n := len(e.pending)
	e.pending = e.pending[:0]
	if e.fault != nil {
		if err := e.fault.Send(msg, n, e.rawWrite); err != nil {
			return fmt.Errorf("live: exporting %d flow records: %w", n, err)
		}
	} else if _, err := e.conn.Write(msg); err != nil {
		return fmt.Errorf("live: exporting %d flow records: %w", n, err)
	}
	e.m.ExportedRecords.Add(int64(n))
	e.m.ExportedMsgs.Inc()
	return nil
}

// Exported returns the number of records handed to the network so far.
func (e *Exporter) Exported() int64 { return e.m.ExportedRecords.Value() }
