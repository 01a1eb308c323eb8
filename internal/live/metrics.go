// Package live runs the simulated IXP as networked services inside one
// process: BGP sessions over real TCP connections between the scenario's
// peer speakers and the route server, and IPFIX flow export over UDP from
// the fabric to a collector. A sequencer totally orders update delivery
// by the scenario's logical timestamps, which keeps the control plane —
// and therefore the archived dataset — byte-identical to the offline
// batch path for the same Config and seed.
package live

import "repro/internal/obs"

// Metrics holds the live subsystem's counters. The reconciliation
// invariant checked on shutdown: UpdatesSent == UpdatesDelivered, and
// ExportedRecords == CollectedRecords + DroppedRecords.
type Metrics struct {
	// BGP transport.
	SessionsEstablished obs.Counter
	Reconnects          obs.Counter
	HoldExpiries        obs.Counter
	PeerDowns           obs.Counter
	UpdatesSent         obs.Counter
	UpdatesDelivered    obs.Counter
	// SendRetries counts Speaker.Send resends after an injected
	// connection kill (zero-byte failures only; see Speaker.Send).
	SendRetries obs.Counter
	// Restart-tolerance accounting (see restartGuard): peer-downs whose
	// route flush was deferred, deferred downs cancelled by a reconnect,
	// and deferred downs that expired into a real flush.
	RestartsDeferred  obs.Counter
	RestartsRecovered obs.Counter
	RestartFlushes    obs.Counter

	// IPFIX export/collect.
	ExportedRecords  obs.Counter
	ExportedMsgs     obs.Counter
	CollectedRecords obs.Counter
	CollectedMsgs    obs.Counter
	// DroppedDatagrams counts datagrams shed at the collector's ingest
	// queue (backpressure policy: drop-newest, never block the socket
	// reader). The records they carried surface in DroppedRecords via
	// sequence-number gap accounting on the next accepted message.
	DroppedDatagrams obs.Counter
	// QueueHighWater is the most datagrams the ingest queue has held at
	// once, as the socket reader saw it; a shed datagram means the queue
	// was full.
	QueueHighWater obs.Gauge
	DroppedRecords obs.Counter
	LateMsgs       obs.Counter
	DecodeErrors   obs.Counter
	// SyncMsgs counts empty sequence-sync messages emitted so that tail
	// drops surface as sequence gaps (see Exporter.Sync): at drain time,
	// and when a credit wait finds the collector idle.
	SyncMsgs obs.Counter
	// CreditWait times the exporter's waits for collector credit (see
	// Runner): one span per datagram that found the window full. Its
	// total is how long the export stream was held back for the analyzer.
	CreditWait obs.Timer
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// Register exposes every counter, gauge and timer on reg under the "live."
// namespace.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.RegisterCounter("live.bgp.sessions_established", &m.SessionsEstablished)
	reg.RegisterCounter("live.bgp.reconnects", &m.Reconnects)
	reg.RegisterCounter("live.bgp.hold_expiries", &m.HoldExpiries)
	reg.RegisterCounter("live.bgp.peer_downs", &m.PeerDowns)
	reg.RegisterCounter("live.bgp.updates_sent", &m.UpdatesSent)
	reg.RegisterCounter("live.bgp.updates_delivered", &m.UpdatesDelivered)
	reg.RegisterCounter("live.bgp.send_retries", &m.SendRetries)
	reg.RegisterCounter("live.bgp.restarts_deferred", &m.RestartsDeferred)
	reg.RegisterCounter("live.bgp.restarts_recovered", &m.RestartsRecovered)
	reg.RegisterCounter("live.bgp.restart_flushes", &m.RestartFlushes)
	reg.RegisterCounter("live.ipfix.exported_records", &m.ExportedRecords)
	reg.RegisterCounter("live.ipfix.exported_msgs", &m.ExportedMsgs)
	reg.RegisterCounter("live.ipfix.collected_records", &m.CollectedRecords)
	reg.RegisterCounter("live.ipfix.collected_msgs", &m.CollectedMsgs)
	reg.RegisterCounter("live.ipfix.dropped_datagrams", &m.DroppedDatagrams)
	reg.RegisterGauge("live.ipfix.queue_high_water", &m.QueueHighWater)
	reg.RegisterCounter("live.ipfix.dropped_records", &m.DroppedRecords)
	reg.RegisterCounter("live.ipfix.late_msgs", &m.LateMsgs)
	reg.RegisterCounter("live.ipfix.decode_errors", &m.DecodeErrors)
	reg.RegisterCounter("live.ipfix.sync_msgs", &m.SyncMsgs)
	reg.RegisterTimer("live.ipfix.credit_wait", &m.CreditWait)
}
