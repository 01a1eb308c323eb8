package live

import (
	"fmt"
	"net"

	"repro/internal/faultnet"
	"repro/internal/ipfix"
)

// exporter defaults.
const (
	// MaxDatagram bounds exported datagram size: the largest IPv4 UDP
	// payload (65,535 − 20 − 8 bytes). The runner exports only over
	// loopback, whose 65,536-byte MTU this stays under, so a full message
	// is never fragmented (RFC 7011 §10.3.3) and costs one send and one
	// receive for 1,335 records.
	MaxDatagram = 65507
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
	conn net.Conn
	enc  *ipfix.MsgEncoder
	p    *ipfix.Packer
	m    *Metrics

	// fault, when set, impairs every data datagram; the packer's
	// template resend period is then 1, so a dropped template-bearing
	// datagram can never strand later messages undecodable — decode
	// errors would break record-exact drop accounting. lastExport is the
	// last export timestamp emitted, for Sync messages.
	fault      *faultnet.UDPSchedule
	lastExport uint32
}

// NewExporter returns an exporter for observation domain id domain
// sending on conn (a connected UDP socket). mtu bounds the datagram
// size; 0 means MaxDatagram.
func NewExporter(conn net.Conn, domain uint32, mtu int, m *Metrics) (*Exporter, error) {
	if mtu <= 0 {
		mtu = MaxDatagram
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
	e := &Exporter{conn: conn, enc: ipfix.NewMsgEncoder(domain), m: m}
	e.p = ipfix.NewPacker(e.enc, perMsg, templateEvery, e.send)
	return e, nil
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
		e.p.TemplateEvery = 1
	}
	return e.Sync()
}

// ExportBatch queues every record of b, sending a datagram whenever a
// message fills, so the datagram packing depends only on the record
// sequence, not on how it was cut into batches. It borrows b per the
// ipfix.RecordBatch contract.
func (e *Exporter) ExportBatch(b *ipfix.RecordBatch) error { return e.p.Pack(b.Recs) }

// Flush sends any partially filled message.
func (e *Exporter) Flush() error { return e.p.Flush() }

// Sync transmits an empty, template-bearing message carrying the current
// sequence number, bypassing the impairment schedule (after releasing
// any datagram it still holds for reordering). A tail drop leaves no
// later message to reveal the sequence gap, so without Sync the
// collector could never account the loss and drain would hang; the
// runner sends one when a credit wait finds the collector idle, and
// retries it while draining.
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

// send is the packer's hook: one message of n records, one datagram.
func (e *Exporter) send(msg []byte, n int, exportTime uint32) error {
	e.lastExport = exportTime
	var err error
	if e.fault != nil {
		err = e.fault.Send(msg, n, e.rawWrite)
	} else {
		err = e.rawWrite(msg)
	}
	if err != nil {
		return fmt.Errorf("live: exporting %d flow records: %w", n, err)
	}
	e.m.ExportedRecords.Add(int64(n))
	e.m.ExportedMsgs.Inc()
	return nil
}

// Exported returns the number of records handed to the network so far.
func (e *Exporter) Exported() int64 { return e.m.ExportedRecords.Value() }
