package rtbh

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/federation"
	"repro/internal/scenario"
)

// IXPDir names the per-exchange dataset subdirectory of a federated
// dataset: <dir>/ixp0, <dir>/ixp1, ...
func IXPDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("ixp%d", i))
}

// FederatedSummary reports what a run over one or more exchanges
// produced: SimulateFederated's, or a LiveRun's.
type FederatedSummary struct {
	IXPs              int
	MultiHomedMembers []uint32
	Events            int
	Hosts             int
	Members           int
	Announcements     int
	Withdrawals       int
	// Per-exchange measurement volumes, indexed by IXP.
	ControlMsgs    []int
	FlowRecords    []int64
	PacketsIn      []int64
	PacketsDropped []int64
}

// SimulateFederated plans the world once and runs it across
// cfg.IXPs exchanges, writing one complete standalone dataset per
// exchange into dir/ixp<i>. Each dataset carries the full member table
// (every exchange knows the shared member universe) but only the
// control messages and flow records observed at that exchange. With
// cfg.IXPs <= 1 the single dataset written to dir/ixp0 is
// byte-identical to what Simulate writes.
func SimulateFederated(cfg Config, dir string) (*FederatedSummary, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	fed := scenario.PlanFederation(w)
	writers := make([]*datasetWriter, fed.N)
	sinks := make([]scenario.Sinks, fed.N)
	for i := range writers {
		if writers[i], err = newDatasetWriter(IXPDir(dir, i), w); err != nil {
			return nil, err
		}
		defer writers[i].close()
		sinks[i] = writers[i].sinks()
	}
	xs, st, err := scenario.RunFederated(fed, sinks)
	if err != nil {
		return nil, err
	}
	for _, dw := range writers {
		if err := dw.finish(); err != nil {
			return nil, err
		}
	}
	return federatedSummary(fed, xs, st), nil
}

// federatedSummary reports a finished run over the federation's
// exchanges, in-process or live.
func federatedSummary(fed *scenario.Federation, xs []*scenario.Exchange, st *scenario.DriveStats) *FederatedSummary {
	sum := &FederatedSummary{
		IXPs:              fed.N,
		MultiHomedMembers: fed.MultiHomedMembers(),
		Events:            len(fed.W.Events),
		Hosts:             len(fed.W.Hosts),
		Members:           len(fed.W.Members),
		Announcements:     st.Announcements,
		Withdrawals:       st.Withdrawals,
	}
	for _, x := range xs {
		fst := x.FB.Stats()
		sum.ControlMsgs = append(sum.ControlMsgs, x.RS.MessagesProcessed())
		sum.FlowRecords = append(sum.FlowRecords, x.FlowRecords)
		sum.PacketsIn = append(sum.PacketsIn, fst.PacketsIn)
		sum.PacketsDropped = append(sum.PacketsDropped, fst.PacketsDropped)
	}
	return sum
}

// IXPReport is one exchange's view within a federated report.
type IXPReport struct {
	IXP int
	// ClockOffset is the skew the exchange declared in its snapshot.
	ClockOffset time.Duration
	// Report is the full analysis over this exchange's measurements
	// alone, in its local event numbering.
	Report *Report
}

// FederatedReport combines the exchanges' views.
type FederatedReport struct {
	// Global is the analysis over the union control plane and the folded
	// operator state — what a single exchange observing everything would
	// have reported.
	Global *Report
	// PerIXP lists each exchange's standalone report.
	PerIXP []*IXPReport
	// Cross joins every exchange's during-event traffic against the
	// union event structure: which attacks one exchange dropped while
	// another delivered.
	Cross *federation.CrossView
}

// snapshotDataset reduces one opened dataset to a federation snapshot:
// the batch pass over its flows, then the marshaled state. The lanes keep
// per-stream observation order, so the state is the inline pass's at any
// opts.Workers, and its canonical encoding is a fingerprint the parity
// tests compare directly.
func snapshotDataset(ds *Dataset, ixp int, seq uint64, opts Options) (*federation.Snapshot, error) {
	p, err := ds.pass(opts)
	if err != nil {
		return nil, err
	}
	state, err := p.MarshalState()
	if err != nil {
		return nil, err
	}
	return &federation.Snapshot{IXP: ixp, Seq: seq, Updates: ds.Updates, State: state}, nil
}

// AnalyzeFederated opens the per-exchange datasets in dirs, reduces
// each to a snapshot, and merges them through the federation
// coordinator — round-tripping every snapshot through its wire encoding
// exactly as a distributed deployment would. The returned global report
// over N partitioned datasets is identical to Analyze over the
// equivalent single dataset (see DESIGN.md, "Federation"). opts.Metrics
// is ignored: a registry instruments one pass, and there is one per
// exchange here.
func AnalyzeFederated(dirs []string, opts Options) (*FederatedReport, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("rtbh: no federated dataset directories")
	}
	datasets := make([]*Dataset, len(dirs))
	for i, dir := range dirs {
		ds, err := OpenDataset(dir)
		if err != nil {
			return nil, err
		}
		datasets[i] = ds
	}

	coord := federation.NewCoordinator(datasets[0].Meta, opts.Delta)
	passOpts := opts
	passOpts.Metrics = nil
	for i, ds := range datasets {
		snap, err := snapshotDataset(ds, i, 1, passOpts)
		if err != nil {
			return nil, err
		}
		frame, err := snap.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if err := coord.OfferBytes(frame); err != nil {
			return nil, err
		}
	}
	merged, err := coord.Merge()
	if err != nil {
		return nil, err
	}
	return composeFederatedReport(merged, datasets, opts)
}

// composeFederatedReport renders a merged federation state: the global
// report, the per-IXP reports, and — when flow sources are available —
// the cross-IXP traffic join.
func composeFederatedReport(merged *federation.MergedState, datasets []*Dataset, opts Options) (*FederatedReport, error) {
	fr := &FederatedReport{
		Global: composeReport(merged.Meta, merged.Updates, merged.Pipeline, opts),
	}
	for _, v := range merged.IXPs {
		fr.PerIXP = append(fr.PerIXP, &IXPReport{
			IXP:         v.IXP,
			ClockOffset: v.ClockOffset,
			Report:      composeReport(merged.Meta, v.Updates, v.Pipeline, opts),
		})
	}
	if len(merged.IXPs) > 1 && datasets != nil {
		sources := make(map[int]federation.FlowSource)
		for _, v := range merged.IXPs {
			if v.IXP >= 0 && v.IXP < len(datasets) && datasets[v.IXP] != nil {
				sources[v.IXP] = datasets[v.IXP].EachFlowBatch
			}
		}
		cross, err := merged.Cross(sources)
		if err != nil {
			return nil, err
		}
		fr.Cross = cross
	}
	return fr, nil
}
