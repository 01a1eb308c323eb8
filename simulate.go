package rtbh

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/mrt"
	"repro/internal/scenario"
)

// Dataset file names inside a dataset directory.
const (
	FileUpdates  = "updates.mrt"
	FileFlows    = "flows.ipfix"
	FileMetadata = "metadata.json"
	FileIP2AS    = "ip2as.json"
	FilePDB      = "peeringdb.json"
	FileTruth    = "truth.json"
)

// SimulationSummary reports what a run over one or more exchanges
// produced: Simulate's, or a LiveRun's. The volumes are totals over the
// exchanges; PerIXP holds each exchange's share of them.
type SimulationSummary struct {
	Events         int
	Hosts          int
	Members        int
	ControlMsgs    int
	Announcements  int
	Withdrawals    int
	FlowRecords    int64
	PacketsIn      int64
	PacketsDropped int64
	// The generator's own counts: packet batches handed to the fabric,
	// how many of them are pieces of a batch cut at a mitigation
	// transition, and the most any one day held.
	Batches       int64
	SplitSegments int64
	MaxDayBatches int
	// PerIXP is indexed by exchange; its length is the exchange count.
	PerIXP []IXPVolumes
	// MultiHomedMembers lists the ASNs connected at two exchanges
	// (empty on a single one).
	MultiHomedMembers []uint32
}

// IXPVolumes is what one exchange measured of a run.
type IXPVolumes struct {
	ControlMsgs    int
	FlowRecords    int64
	PacketsIn      int64
	PacketsDropped int64
}

// summarize reports a finished run over the federation's exchanges,
// in-process or live.
func summarize(fed *scenario.Federation, xs []*scenario.Exchange, st *scenario.DriveStats) *SimulationSummary {
	sum := &SimulationSummary{
		Events:            len(fed.W.Events),
		Hosts:             len(fed.W.Hosts),
		Members:           len(fed.W.Members),
		Announcements:     st.Announcements,
		Withdrawals:       st.Withdrawals,
		Batches:           st.Batches,
		SplitSegments:     st.SplitSegments,
		MaxDayBatches:     st.MaxDayBatches,
		MultiHomedMembers: fed.MultiHomedMembers(),
	}
	for _, x := range xs {
		fst := x.FB.Stats()
		v := IXPVolumes{
			ControlMsgs:    x.RS.MessagesProcessed(),
			FlowRecords:    x.FlowRecords,
			PacketsIn:      fst.PacketsIn,
			PacketsDropped: fst.PacketsDropped,
		}
		sum.PerIXP = append(sum.PerIXP, v)
		sum.ControlMsgs += v.ControlMsgs
		sum.FlowRecords += v.FlowRecords
		sum.PacketsIn += v.PacketsIn
		sum.PacketsDropped += v.PacketsDropped
	}
	return sum
}

// datasetMeta is the JSON schema of metadata.json: everything an analyst
// legitimately has (no ground truth).
type datasetMeta struct {
	SamplingRate int64     `json:"sampling_rate"`
	Start        time.Time `json:"start"`
	End          time.Time `json:"end"`
	// TrafficScale is the traffic-magnitude multiplier the world was
	// simulated at; analysis thresholds calibrated to scale 1 derive
	// from it. Omitted (0) means 1, so scale-1 metadata is byte-identical
	// to metadata written before the knob existed.
	TrafficScale float64      `json:"traffic_scale,omitempty"`
	BlackholeMAC ipfix.MAC    `json:"blackhole_mac"`
	InternalMACs []ipfix.MAC  `json:"internal_macs"`
	RSASN        uint16       `json:"rs_asn"`
	Members      []memberMeta `json:"members"`
}

type memberMeta struct {
	ASN uint32    `json:"asn"`
	MAC ipfix.MAC `json:"mac"`
}

// Simulate plans the world described by cfg once and runs it across
// cfg.IXPs exchanges, writing one complete dataset per exchange: into dir
// itself (created if missing) for a single exchange, into dir/ixp<i> for
// more — the layout DatasetDirs reads back. A dataset is the MRT
// control-plane archive, the IPFIX flow archive, metadata, the IP-to-AS
// table, the PeeringDB snapshot and the ground truth; each exchange's has
// the full member table but only what was observed there.
func Simulate(cfg Config, dir string) (*SimulationSummary, error) {
	return SimulateObserved(cfg, dir, nil)
}

// SimulateObserved is Simulate with observability: when reg is non-nil
// the route server and fabric of exchange 0 (the metric names are global)
// register their metrics ("routeserver.*", "fabric.*") on it, so does its
// flow archive writer ("ipfix.writer.records", "ipfix.writer.wait"), and
// the generator's counts are published as "scenario.batches",
// "scenario.split_segments" and "scenario.day_batches_max", beside the
// time dispatch waited for a generated day and generation for a free
// day buffer, "scenario.dispatch_wait_ns" and "scenario.generate_wait_ns":
// a long dispatch wait means generation bounds the run, a long generate
// wait that the route servers and fabrics do. Snapshot after
// the call returns; on a single exchange the fabric's ground-truth gauges
// match the returned summary exactly.
func SimulateObserved(cfg Config, dir string, reg *MetricsRegistry) (*SimulationSummary, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	fed := scenario.PlanFederation(w)
	writers := make([]*datasetWriter, fed.N)
	sinks := make([]scenario.Sinks, fed.N)
	for i, d := range exchangeDirs(dir, fed.N) {
		if writers[i], err = newDatasetWriter(d, w); err != nil {
			return nil, err
		}
		defer writers[i].close()
		sinks[i] = writers[i].sinks()
	}
	sinks[0].Metrics = reg
	if reg != nil {
		writers[0].flowW.RegisterMetrics(reg)
	}
	xs, st, err := scenario.RunFederated(fed, sinks, nil)
	if err != nil {
		return nil, err
	}
	for _, dw := range writers {
		if err := dw.finish(); err != nil {
			return nil, err
		}
	}
	if reg != nil {
		reg.Gauge("scenario.batches").Set(st.Batches)
		reg.Gauge("scenario.split_segments").Set(st.SplitSegments)
		reg.Gauge("scenario.day_batches_max").Set(int64(st.MaxDayBatches))
		reg.Gauge("scenario.dispatch_wait_ns").Set(int64(st.DispatchWait))
		reg.Gauge("scenario.generate_wait_ns").Set(int64(st.GenerateWait))
	}
	return summarize(fed, xs, st), nil
}

// datasetWriter writes one exchange's dataset directory: the two stream
// archives while the run is in flight, the side tables beside it (they
// depend on the planned world alone), and metadata.json last, once
// everything else is complete. Simulate and LiveRun both archive through
// it, so what a dataset directory holds is decided here and nowhere else.
type datasetWriter struct {
	dir               string
	w                 *scenario.World
	mrtFile, flowFile *os.File
	mrtW              *mrt.Writer
	flowW             *ipfix.Writer
	// controlErr is the first error archiving a control message; the
	// collector hook has no error path, so finish reports it.
	controlErr error
	// sideDone is closed once the side tables are written, with sideErr
	// the first error writing them.
	sideDone chan struct{}
	sideErr  error
}

// newDatasetWriter creates dir if missing, removes a metadata.json left
// by an earlier run (the directory is incomplete until finish writes a
// new one), opens the two archives and starts writing the side tables.
func newDatasetWriter(dir string, w *scenario.World) (*datasetWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, FileMetadata)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	dw := &datasetWriter{dir: dir, w: w, sideDone: make(chan struct{})}
	var err error
	if dw.mrtFile, err = os.Create(filepath.Join(dir, FileUpdates)); err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	if dw.flowFile, err = os.Create(filepath.Join(dir, FileFlows)); err != nil {
		dw.mrtFile.Close()
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	dw.mrtW = mrt.NewWriter(dw.mrtFile)
	dw.flowW = ipfix.NewWriter(dw.flowFile, 1)
	go func() {
		defer close(dw.sideDone)
		dw.sideErr = dw.writeSideTables()
	}()
	return dw, nil
}

// writeSideTables writes the IP-to-AS table, the PeeringDB snapshot and
// the ground truth.
func (dw *datasetWriter) writeSideTables() error {
	w := dw.w
	if err := writeFile(filepath.Join(dw.dir, FileIP2AS), w.IP2AS.WriteJSON); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dw.dir, FilePDB), w.PDB.WriteJSON); err != nil {
		return err
	}
	return writeFile(filepath.Join(dw.dir, FileTruth), scenario.Truth(w).WriteJSON)
}

// sinks returns the archive ends of the two streams: Control frames
// every message the route server's collector hook sees as one MRT
// record, Flow appends each record batch to the IPFIX archive.
func (dw *datasetWriter) sinks() scenario.Sinks {
	return scenario.Sinks{
		Control: func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
			rec := mrt.Record{
				Timestamp: ts, PeerAS: peerAS, LocalAS: uint32(dw.w.RSASN),
				PeerIP: peerIP, LocalIP: dw.w.RSIP, Message: msg,
			}
			if err := dw.mrtW.WriteRecord(&rec); err != nil && dw.controlErr == nil {
				dw.controlErr = err
			}
		},
		Flow: dw.flowW.WriteBatch,
	}
}

// finish flushes and closes the archives, waits for the side tables and
// writes metadata.json, which makes the directory a complete, loadable
// dataset. On any error the directory has no metadata.json.
func (dw *datasetWriter) finish() error {
	if dw.controlErr != nil {
		return fmt.Errorf("rtbh: archiving control message: %w", dw.controlErr)
	}
	if err := dw.mrtW.Flush(); err != nil {
		return fmt.Errorf("rtbh: flushing MRT: %w", err)
	}
	if err := dw.flowW.Flush(); err != nil {
		return fmt.Errorf("rtbh: flushing IPFIX: %w", err)
	}
	if err := dw.mrtFile.Close(); err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	if err := dw.flowFile.Close(); err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	<-dw.sideDone
	if dw.sideErr != nil {
		return dw.sideErr
	}
	return writeJSON(filepath.Join(dw.dir, FileMetadata), metaOf(dw.w))
}

// close joins the flow encoder and the side tables and releases the
// archive files on paths that never reached finish (after finish, or
// twice, it is harmless).
func (dw *datasetWriter) close() {
	dw.flowW.Flush() //nolint:errcheck // joins the encoder; the run already failed
	<-dw.sideDone
	dw.mrtFile.Close()
	dw.flowFile.Close()
}

func metaOf(w *scenario.World) datasetMeta {
	m := datasetMeta{
		SamplingRate: w.Cfg.SamplingRate,
		Start:        w.Cfg.Start,
		End:          w.Cfg.End(),
		BlackholeMAC: fabric.BlackholeMAC,
		InternalMACs: []ipfix.MAC{fabric.InternalMAC},
		RSASN:        w.RSASN,
	}
	if s := w.Cfg.Scale(); s != 1 {
		m.TrafficScale = s
	}
	for _, mem := range w.Members {
		m.Members = append(m.Members, memberMeta{ASN: mem.ASN, MAC: fabric.MemberMAC(mem.ASN)})
	}
	return m
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("rtbh: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("rtbh: writing %s: %w", path, err)
	}
	return f.Close()
}
