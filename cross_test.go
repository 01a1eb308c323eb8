package rtbh_test

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis/pipeline"
	"repro/internal/federation"
	"repro/internal/ipfix"
)

// mergeRun simulates cfg and merges its exchanges' batch passes through
// a coordinator, snapshot wire round trip included, as AnalyzeFederated
// does. It returns the merged state and the datasets in exchange order.
func mergeRun(t *testing.T, cfg rtbh.Config, opts rtbh.Options) (*federation.MergedState, []*rtbh.Dataset) {
	t.Helper()
	dir := t.TempDir()
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	var coord *federation.Coordinator
	var datasets []*rtbh.Dataset
	for i, d := range datasetDirs(t, dir, cfg.IXPs) {
		ds, err := rtbh.OpenDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			coord = federation.NewCoordinator(ds.Meta, opts.Delta)
		}
		p, err := ds.Pass(opts)
		if err != nil {
			t.Fatal(err)
		}
		state, err := p.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		frame, err := (&federation.Snapshot{IXP: i, Seq: 1, Updates: ds.Updates, State: state}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.OfferBytes(frame); err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, ds)
	}
	merged, err := coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return merged, datasets
}

// crossReference is the plain form of federation.MergedState.Cross that
// the dense, cursor-driven join is pinned to: every record attributed
// through events.Index.Lookup on time.Time, counted into a map of maps
// keyed by event and exchange, an event local where the exchange's
// EventToUnion reaches it.
func crossReference(m *federation.MergedState, sources map[int]pipeline.BatchSource) (*federation.CrossView, error) {
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
			return nil, err
		}
	}

	local := make(map[int]map[int]bool, len(m.IXPs)) // IXP -> union event IDs signaled there
	for _, v := range m.IXPs {
		local[v.IXP] = make(map[int]bool, len(v.EventToUnion))
		for _, uid := range v.EventToUnion {
			local[v.IXP][uid] = true
		}
	}

	cv := &federation.CrossView{}
	ids := make([]int, 0, len(perEvent))
	for id := range perEvent {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := m.Events[id]
		ec := federation.EventCross{EventID: id, Prefix: e.Prefix, Peer: e.Peer}
		var total, foreign, droppedLocal int64
		for _, ixp := range ixps {
			cl := perEvent[id][ixp]
			if cl == nil {
				continue
			}
			isLocal := local[ixp][id]
			ec.IXPs = append(ec.IXPs, federation.IXPEventTraffic{
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

// TestCrossMatchesReference holds the federation's cross join to
// crossReference on the disjoint three-exchange golden world, where
// nothing leaks, and on the multi-homed world of TestFederatedMultiHomed,
// where secondary exchanges deliver what the home exchange drops. A
// source failing mid-stream must fail the join, naming its exchange.
func TestCrossMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes two federated test-scale worlds")
	}
	disjoint := goldenConfig()
	disjoint.IXPs = 3
	multiHomed := disjoint
	multiHomed.MultiHomedShare = 0.6
	multiHomed.IXPClockSkewStep = 2 * time.Millisecond
	for _, tc := range []struct {
		name    string
		cfg     rtbh.Config
		foreign bool
	}{{"disjoint", disjoint, false}, {"multi-homed", multiHomed, true}} {
		t.Run(tc.name, func(t *testing.T) {
			merged, datasets := mergeRun(t, tc.cfg, federationOptions())
			sources := make([]pipeline.BatchSource, len(datasets))
			byIXP := make(map[int]pipeline.BatchSource, len(datasets))
			for i, ds := range datasets {
				sources[i], byIXP[merged.IXPs[i].IXP] = ds.EachFlowBatch, ds.EachFlowBatch
			}
			got, err := merged.Cross(sources)
			if err != nil {
				t.Fatal(err)
			}
			want, err := crossReference(merged, byIXP)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cross view differs from the reference:\ngot  %+v\nwant %+v", got, want)
			}
			if len(got.Events) == 0 || got.DroppedPkts == 0 || (got.ForeignPkts > 0) != tc.foreign {
				t.Fatalf("%d events, %d dropped, %d foreign packets: not the world the case is about",
					len(got.Events), got.DroppedPkts, got.ForeignPkts)
			}

			errSource := errors.New("archive torn")
			batches := 0
			sources[1] = func(fn ipfix.BatchSink) error {
				return datasets[1].EachFlowBatch(func(b *ipfix.RecordBatch) error {
					if batches++; batches > 1 {
						return errSource
					}
					return fn(b)
				})
			}
			if _, err := merged.Cross(sources); !errors.Is(err, errSource) || !strings.Contains(err.Error(), "IXP 1") {
				t.Fatalf("a source failing mid-stream gave %v, want %v naming IXP 1", err, errSource)
			}
			if batches < 2 {
				t.Fatalf("the failing source streamed %d batches, want it to fail after the first", batches)
			}
		})
	}
}

// TestFederatedRejectsStaleExchange reruns a three-exchange run's
// directory with two exchanges, which leaves the first run's ixp2
// behind. Federating the directory must fail rather than merge two runs:
// on ixp2's metadata when the rerun is shorter, and on events signalled
// at two exchanges when it plans the same world.
func TestFederatedRejectsStaleExchange(t *testing.T) {
	rerun := func(t *testing.T, days int) error {
		dir := t.TempDir()
		cfg := rtbh.TestConfig()
		cfg.IXPs = 3
		if _, err := rtbh.Simulate(cfg, dir); err != nil {
			t.Fatal(err)
		}
		cfg.IXPs, cfg.Days = 2, days
		if _, err := rtbh.Simulate(cfg, dir); err != nil {
			t.Fatal(err)
		}
		_, err := rtbh.AnalyzeFederated(datasetDirs(t, dir, 3), federationOptions())
		return err
	}
	days := rtbh.TestConfig().Days
	if err := rerun(t, days-10); err == nil || !strings.Contains(err.Error(), "ixp2: period differs") {
		t.Errorf("a shorter rerun gave %v, want ixp2's period named", err)
	}
	if err := rerun(t, days); err == nil || !strings.Contains(err.Error(), "IXP 2: ") || !strings.Contains(err.Error(), "signaled at IXP") {
		t.Errorf("a same-world rerun gave %v, want an IXP 2 event signalled at another exchange", err)
	}
}
