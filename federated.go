package rtbh

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/pipeline"
	"repro/internal/federation"
)

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

// AnalyzeFederated opens the per-exchange datasets in dirs, reduces
// each to a snapshot — the batch pass over its flows, then the marshaled
// state, the inline pass's at any opts.Workers — and merges them through
// the federation coordinator, round-tripping every snapshot through its
// wire encoding exactly as a distributed deployment would. The returned
// global report over N partitioned datasets is identical to Analyze over
// the equivalent single dataset (see DESIGN.md, "Federation").
// opts.Metrics instruments exchange 0's pass: a registry instruments one
// pass, and there is one per exchange here.
func AnalyzeFederated(dirs []string, opts Options) (*FederatedReport, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("rtbh: no federated dataset directories")
	}
	datasets := make([]*Dataset, len(dirs))
	for i, dir := range dirs {
		var err error
		if datasets[i], err = OpenDataset(dir); err != nil {
			return nil, err
		}
		if f := metaMismatch(datasets[0].Meta, datasets[i].Meta); f != "" {
			return nil, fmt.Errorf("rtbh: %s: %s differs from %s's (left over from an earlier run?)", dir, f, dirs[0])
		}
	}

	coord := federation.NewCoordinator(datasets[0].Meta, opts.Delta)
	passOpts := opts
	for i, ds := range datasets {
		p, err := ds.pass(passOpts)
		if err != nil {
			return nil, err
		}
		passOpts.Metrics = nil
		state, err := p.MarshalState()
		if err != nil {
			return nil, err
		}
		frame, err := (&federation.Snapshot{IXP: i, Seq: 1, Updates: ds.Updates, State: state}).MarshalBinary()
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

// metaMismatch names the first field in which b's metadata differs from
// a's, or returns "": the exchanges of one run share all of them.
func metaMismatch(a, b *analysis.Metadata) string {
	switch {
	case a.SamplingRate != b.SamplingRate:
		return "sampling rate"
	case a.TrafficScale != b.TrafficScale:
		return "traffic scale"
	case !a.Start.Equal(b.Start) || !a.End.Equal(b.End):
		return "period"
	case a.BlackholeMAC != b.BlackholeMAC:
		return "blackhole MAC"
	case !maps.Equal(a.InternalMACs, b.InternalMACs):
		return "internal MACs"
	case !maps.Equal(a.MemberByMAC, b.MemberByMAC):
		return "member table"
	}
	return ""
}

// composeFederatedReport renders a merged federation state: the global
// report, the per-IXP reports, and — between several exchanges — the
// cross-IXP traffic join over the datasets' flow archives, indexed by IXP.
func composeFederatedReport(merged *federation.MergedState, datasets []*Dataset, opts Options) (*FederatedReport, error) {
	fr := &FederatedReport{
		Global: composeReport(merged.Meta, merged.Updates, merged.Pipeline, opts),
	}
	sources := make([]pipeline.BatchSource, len(merged.IXPs))
	for x, v := range merged.IXPs {
		fr.PerIXP = append(fr.PerIXP, &IXPReport{
			IXP:         v.IXP,
			ClockOffset: v.ClockOffset,
			Report:      composeReport(merged.Meta, v.Updates, v.Pipeline, opts),
		})
		sources[x] = datasets[v.IXP].EachFlowBatch
	}
	if len(merged.IXPs) > 1 {
		var err error
		if fr.Cross, err = merged.Cross(sources); err != nil {
			return nil, err
		}
	}
	return fr, nil
}
