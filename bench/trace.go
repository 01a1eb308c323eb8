package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/events"
	"repro/internal/analysis/hosts"
	"repro/internal/analysis/load"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/analysis/usecase"
	"repro/internal/analysis/visibility"
	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/ipfix"
	"repro/internal/live"
	"repro/internal/mrt"
	"repro/internal/radviz"
	"repro/internal/routeserver"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/textreport"
)

// budgetRow is one line of the budget table: how long one layer was busy
// inside one traced path.
type budgetRow struct {
	path, layer string
	busy        time.Duration
}

// tracer is the traced repetition: it times the calls into each layer's
// public functions from outside, with the harness's own spans.
type tracer struct {
	*runner
	rows     []budgetRow
	walls    map[string]time.Duration // traced wall per path
	heapPeak uint64
	// sectionSum is the compose mirror's total, compared against the
	// program's own analysis.compose timer (compose.mirror_gap).
	sectionSum time.Duration
}

// set records a per-layer metric (one value per traced run).
func (t *tracer) set(name string, v float64) { t.samples[name] = []float64{v} }

func (t *tracer) row(path, layer string, busy time.Duration) {
	t.rows = append(t.rows, budgetRow{path, layer, busy})
}

// sampleHeap notes the heap in use; called at stage boundaries.
func (t *tracer) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heapPeak = max(t.heapPeak, ms.HeapInuse)
}

func perRecordNS(d time.Duration, records int64) float64 {
	if records == 0 {
		return 0
	}
	return float64(d) / float64(records)
}

// tracedExecutor is the harness's scenario.Executor: it wires the route
// server, fabric and archive writers exactly as SimulateObserved does and
// accounts the time of every call on the span of the simulated day.
type tracedExecutor struct {
	rec      *recorder
	parent   int
	start    time.Time // world start, for the day index
	rs       *routeserver.Server
	fb       *fabric.Fabric
	day, cur int   // current day index and its span (-1: none yet)
	inner    int64 // ns spent in the innermost sink during the current call
}

func (e *tracedExecutor) roll(ts time.Time) {
	d := int(ts.Sub(e.start) / (24 * time.Hour))
	if e.cur >= 0 && d == e.day {
		return
	}
	e.closeDay()
	e.day, e.cur = d, e.rec.begin(fmt.Sprintf("day-%03d", d), e.parent)
}

func (e *tracedExecutor) closeDay() {
	if e.cur >= 0 {
		e.rec.end(e.cur)
	}
}

func (e *tracedExecutor) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	e.roll(ts)
	e.inner = 0
	start := time.Now()
	_, err := e.rs.Process(ts, peerAS, upd)
	d := int64(time.Since(start))
	e.rec.addBusy(e.cur, "routeserver.process", d-e.inner)
	e.rec.addBusy(e.cur, "mrt.write", e.inner)
	return err
}

func (e *tracedExecutor) Inject(b *fabric.Batch) error {
	e.roll(b.Time)
	e.inner = 0
	start := time.Now()
	err := e.fb.Inject(b)
	d := int64(time.Since(start))
	e.rec.addBusy(e.cur, "fabric.inject", d-e.inner)
	e.rec.addBusy(e.cur, "ipfix.encode", e.inner)
	return err
}

// countingWriter counts the bytes an archive writer emits.
type countingWriter struct {
	f *os.File
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n += int64(n)
	return n, err
}

// simulateMirror is rtbh.Simulate rebuilt from the layers' public
// functions so each can be timed. It writes updates.mrt and flows.ipfix
// only; they must come out byte-identical to Simulate's.
func (t *tracer) simulateMirror(dir string) error {
	rec := t.rec
	root := rec.begin("simulate", -1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var w *scenario.World
	var err error
	planD := rec.timed("scenario.plan", root, func() { w, err = scenario.Plan(t.cfg) })
	if err != nil {
		return err
	}
	mrtFile, err := os.Create(filepath.Join(dir, rtbh.FileUpdates))
	if err != nil {
		return err
	}
	defer mrtFile.Close()
	flowFile, err := os.Create(filepath.Join(dir, rtbh.FileFlows))
	if err != nil {
		return err
	}
	defer flowFile.Close()
	flowOut := &countingWriter{f: flowFile}
	mrtW, flowW := mrt.NewWriter(mrtFile), ipfix.NewWriter(flowOut, 1)

	drive := rec.begin("scenario.drive", root)
	ex := &tracedExecutor{rec: rec, parent: drive, start: w.Cfg.Start, cur: -1}
	_, err = scenario.Drive(w, func(fabricRNG *stats.RNG) (scenario.Executor, error) {
		var err error
		if ex.rs, err = scenario.NewRouteServer(w); err != nil {
			return nil, err
		}
		ex.rs.SetCollector(func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
			start := time.Now()
			r := mrt.Record{
				Timestamp: ts, PeerAS: peerAS, LocalAS: uint32(w.RSASN),
				PeerIP: peerIP, LocalIP: w.RSIP, Message: msg,
			}
			_ = mrtW.WriteRecord(&r) // surfaces at Flush, as in Simulate
			ex.inner += int64(time.Since(start))
		})
		ex.fb, err = fabric.New(ex.rs, w.Cfg.SamplingRate, fabricRNG, func(b *ipfix.RecordBatch) error {
			start := time.Now()
			err := flowW.WriteBatch(b)
			ex.inner += int64(time.Since(start))
			return err
		})
		if err != nil {
			return nil, err
		}
		ex.fb.ClockOffset = w.Cfg.ClockOffset
		return ex, nil
	})
	ex.closeDay()
	rec.end(drive)
	if err != nil {
		return err
	}
	flushD := rec.timed("archive.flush", root, func() {
		if err = mrtW.Flush(); err == nil {
			err = flowW.Flush()
		}
	})
	rec.end(root)
	if err != nil {
		return err
	}

	busy, calls := map[string]int64{}, map[string]int64{}
	for _, s := range rec.spans[drive+1:] {
		if s.Parent != drive {
			continue
		}
		for k, v := range s.Busy {
			busy[k] += v
			calls[k] += s.Calls[k]
		}
	}
	var children int64
	for _, v := range busy {
		children += v
	}
	st := ex.fb.Stats()
	driveSelf := rec.dur(drive) - time.Duration(children)
	process := time.Duration(busy["routeserver.process"])
	inject := time.Duration(busy["fabric.inject"])
	encode := time.Duration(busy["ipfix.encode"]) + flushD
	mrtWrite := time.Duration(busy["mrt.write"])

	t.set("scenario.plan_s", planD.Seconds())
	t.set("scenario.drive_self_s", driveSelf.Seconds())
	t.set("scenario.injects", float64(calls["fabric.inject"]))
	t.set("scenario.control_msgs", float64(calls["routeserver.process"]))
	t.set("routeserver.process_s", process.Seconds())
	t.set("routeserver.process_us_per_update", perRecordNS(process, calls["routeserver.process"])/1e3)
	t.set("fabric.inject_s", inject.Seconds())
	t.set("fabric.inject_ns_per_record", perRecordNS(inject, st.RecordsSampled))
	t.set("fabric.offered_pkts", float64(st.PacketsIn))
	t.set("fabric.sampled_records", float64(st.RecordsSampled))
	t.set("fabric.dropped_pkts", float64(st.PacketsDropped))
	t.set("ipfix.encode_s", encode.Seconds())
	t.set("ipfix.encode_ns_per_record", perRecordNS(encode, st.RecordsSampled))
	t.set("ipfix.bytes_written", float64(flowOut.n))
	t.set("mrt.write_s", mrtWrite.Seconds())

	wall := rec.dur(root)
	t.walls["simulate"] = wall
	t.row("simulate", "scenario.plan", planD)
	t.row("simulate", "scenario.drive (self)", driveSelf)
	t.row("simulate", "routeserver.process", process)
	t.row("simulate", "mrt.write", mrtWrite)
	t.row("simulate", "fabric.inject (incl. sampling)", inject)
	t.row("simulate", "ipfix.encode", encode)
	t.row("simulate", "(unattributed)", time.Duration(selfTimes(rec.spans)[root]))
	return nil
}

// composeSection is one timed step of the compose mirror.
type composeSection struct {
	name string
	fn   func()
}

// analyzeMirror is Dataset.Analyze at one worker plus RenderAll, rebuilt
// from the layers' public functions in composeReport's order. The
// rendered report must come out byte-identical to Analyze's.
func (t *tracer) analyzeMirror(dir string) ([]byte, *pipeline.Pipeline, error) {
	rec, opts := t.rec, t.opts
	root := rec.begin("analyze", -1)
	var ds *rtbh.Dataset
	var err error
	openD := rec.timed("dataset.open", root, func() { ds, err = rtbh.OpenDataset(dir) })
	if err != nil {
		return nil, nil, err
	}
	meta, updates := ds.Meta, ds.Updates

	var p *pipeline.Pipeline
	newD := rec.timed("pipeline.new", root, func() {
		if p, err = pipeline.New(meta, updates, opts.Delta); err == nil {
			p.BindFlow(mitigation.NewIndex(ds.FlowUpdates, meta.End))
		}
	})
	if err != nil {
		return nil, nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass := rec.begin("flow.pass", root)
	var observeNS int64
	err = ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		start := time.Now()
		p.ObserveBatch(b)
		d := int64(time.Since(start))
		observeNS += d
		rec.addBusy(pass, "pipeline.observe", d)
		return nil
	})
	rec.end(pass)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, nil, err
	}
	observeD := time.Duration(observeNS)
	decodeD := rec.dur(pass) - observeD

	// The sections below are composeReport, statement for statement.
	r := &rtbh.Report{
		TotalRecords:      p.TotalRecords,
		InternalRecords:   p.InternalRecords,
		AttributedRecords: p.FinalAttributed(),
		DroppedRecords:    p.DroppedRecords,
		Events:            p.Events,
	}
	var anomalyAndDataIDs []int
	var profiles []hosts.Profile
	sections := []composeSection{
		{"compose.fig3_load", func() { r.Fig3 = load.Compute(updates, meta.Start, meta.End) }},
		{"compose.fig4_visibility", func() {
			peers := make([]uint32, 0, len(meta.MemberByMAC))
			for _, asn := range meta.MemberByMAC {
				peers = append(peers, asn)
			}
			r.Fig4 = visibility.Compute(updates, peers, meta.Start, meta.End, opts.VisibilityInterval)
		}},
		{"compose.fig10_sweep", func() { r.Fig10, r.Fig10LowerBound = events.Sweep(updates, opts.SweepDeltas, meta.End) }},
		{"compose.fig2_timealign", func() { r.Fig2 = p.Align.Estimate(opts.OffsetStep) }},
		{"compose.dropstats", func() {
			r.Fig5 = p.Drop.ByLength()
			r.Fig5AvgPkts, r.Fig5AvgBytes = p.Drop.AverageDropRate()
			r.Fig6Slash24 = p.Drop.DropRateCDF(24, opts.MinEventPkts)
			r.Fig6Slash32 = p.Drop.DropRateCDF(32, opts.MinEventPkts)
			r.EventDrops = p.Drop.EventStats()
			r.Fig7 = p.Drop.TopSources(opts.TopSources)
			r.Fig7Classes = p.Drop.ClassifyTopSources(opts.TopSources)
			r.Fig8 = p.Drop.TypesOfTopSources(opts.TopSources, meta.PDB)
		}},
		{"compose.anomaly", func() {
			r.Verdicts = p.Anomaly.AnalyzeScaled(p.Events, meta.End, opts.Threshold, meta.MagnitudeScale())
			r.Table2 = anomaly.Classify(r.Verdicts)
			lastMax, withPreData := 0, 0
			for i := range r.Verdicts {
				v := &r.Verdicts[i]
				if v.HasPreData {
					withPreData++
					r.Fig11PreDataSlots = append(r.Fig11PreDataSlots, v.PreDataSlots)
				} else {
					r.Fig11NoData++
				}
				r.Fig12 = append(r.Fig12, v.Anomalies...)
				for f := range v.AmpFactor {
					if v.AmpFactor[f] > 0 {
						r.Fig13[f] = append(r.Fig13[f], v.AmpFactor[f])
					}
				}
				if v.AmpFactor[anomaly.FeatPackets] > 0 && v.LastSlotIsMax {
					lastMax++
				}
				if v.HasEventData {
					r.EventsWithData++
					if v.Within10Min {
						r.AnomalyAndData++
						anomalyAndDataIDs = append(anomalyAndDataIDs, v.EventID)
					}
				}
			}
			if withPreData > 0 {
				r.Fig13LastSlotMax = float64(lastMax) / float64(withPreData)
			}
		}},
		{"compose.protomix", func() {
			r.ProtoShares = p.Proto.Shares(anomalyAndDataIDs)
			r.Table3, r.Table3Events = p.Proto.ProtocolCountDist(anomalyAndDataIDs)
			r.Fig14 = p.Proto.FilterableShares(anomalyAndDataIDs)
			r.Fig14FullyFilterable = p.Proto.FullyFilterableShare(anomalyAndDataIDs)
			r.Fig15Origin = p.Proto.OriginParticipation(anomalyAndDataIDs)
			r.Fig15Handover = p.Proto.HandoverParticipation(anomalyAndDataIDs)
			r.Fig15Scale = p.Proto.Scale(anomalyAndDataIDs)
		}},
		{"compose.hosts", func() {
			profiles = p.ComposeProfiles(opts.MinActiveDays)
			r.Whitelist = p.ComposeWhitelist(opts.MinActiveDays)
			r.Fig17 = profiles
			proj := radviz.New(hosts.NumFeatures)
			for i := range profiles {
				r.Fig16 = append(r.Fig16, proj.Project(profiles[i].Features[:]))
			}
			r.Table4 = hosts.Types(profiles, meta.IP2AS, meta.PDB)
		}},
		{"compose.collateral", func() { r.Fig18 = p.ComposeCollateral(profiles).Result() }},
		{"compose.usecase", func() { r.Fig19 = usecase.Classify(p.Events, r.Verdicts, meta.End) }},
		{"compose.mitigation", func() { r.Table5 = p.Mit.Compose() }},
	}
	compose := rec.begin("compose", root)
	sectionD := make([]time.Duration, len(sections))
	t.sectionSum = 0
	for i, s := range sections {
		sectionD[i] = rec.timed(s.name, compose, s.fn)
		t.sectionSum += sectionD[i]
		t.set(s.name+"_s", sectionD[i].Seconds())
	}
	rec.end(compose)

	var out bytes.Buffer
	renderD := rec.timed("textreport.render", root, func() { textreport.RenderAll(&out, r) })
	rec.end(root)

	records := p.TotalRecords
	t.set("dataset.open_s", openD.Seconds())
	t.set("ipfix.decode_s", decodeD.Seconds())
	t.set("ipfix.decode_ns_per_record", perRecordNS(decodeD, records))
	t.set("pipeline.observe_s", (newD + observeD).Seconds())
	t.set("pipeline.observe_ns_per_record", perRecordNS(observeD, records))
	t.set("pipeline.allocs_per_record", float64(after.Mallocs-before.Mallocs)/float64(max(records, 1)))
	t.set("events.count", float64(len(p.Events)))
	t.set("textreport.render_s", renderD.Seconds())
	t.set("textreport.bytes", float64(out.Len()))

	wall := rec.dur(root)
	t.walls["analyze"] = wall
	t.row("analyze", "dataset.open (incl. mrt.parse)", openD)
	t.row("analyze", "pipeline.new (events.merge+index)", newD)
	t.row("analyze", "ipfix.decode", decodeD)
	t.row("analyze", "pipeline.observe", observeD)
	for i, s := range sections {
		t.row("analyze", s.name, sectionD[i])
	}
	t.row("analyze", "textreport.render", renderD)
	t.row("analyze", "(unattributed)", time.Duration(selfTimes(rec.spans)[root]))
	return out.Bytes(), p, nil
}

// layerCalls times the layer functions the mirrors only reach
// indirectly: the MRT parser, the event merge and index, the parallel
// runner at GOMAXPROCS and at one worker, and a pipeline clone.
func (t *tracer) layerCalls(dir string, a *archive, finished *pipeline.Pipeline) error {
	f, err := os.Open(filepath.Join(dir, rtbh.FileUpdates))
	if err != nil {
		return err
	}
	start := time.Now()
	_, _, err = analysis.ParseMRTAll(f)
	t.set("mrt.parse_s", time.Since(start).Seconds())
	f.Close()
	if err != nil {
		return err
	}

	start = time.Now()
	evs := events.Merge(a.updates, t.opts.Delta, a.meta.End)
	t.set("events.merge_s", time.Since(start).Seconds())
	start = time.Now()
	events.NewIndex(evs, a.meta.End)
	t.set("events.index_s", time.Since(start).Seconds())

	parallel := func(workers int) (time.Duration, rtbh.MetricsSnapshot, error) {
		reg := rtbh.NewMetricsRegistry()
		start := time.Now()
		pp, err := pipeline.NewParallel(a.meta, a.updates, t.opts.Delta, workers)
		if err != nil {
			return 0, rtbh.MetricsSnapshot{}, err
		}
		pp.BindFlow(mitigation.NewIndex(a.flowUpdates, a.meta.End))
		pp.Instrument(reg)
		err = pp.RunBatches(func(fn ipfix.BatchSink) error {
			for _, b := range a.batches {
				if err := fn(b); err != nil {
					return err
				}
			}
			return nil
		})
		return time.Since(start), reg.Snapshot(), err
	}
	dN, snap, err := parallel(0)
	if err != nil {
		return err
	}
	d1, _, err := parallel(1)
	if err != nil {
		return err
	}
	var mergeNS, shardMax, shardSum, shards int64
	for name, tv := range snap.Timers {
		if strings.HasPrefix(name, "pipeline.merge.") {
			mergeNS += tv.TotalNS
		}
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "pipeline.shard.") {
			shardMax, shardSum, shards = max(shardMax, v), shardSum+v, shards+1
		}
	}
	t.set("pipeline.parallel_s", dN.Seconds())
	t.set("pipeline.parallel_w1_s", d1.Seconds())
	t.set("pipeline.speedup", t.samples["pipeline.observe_s"][0]/dN.Seconds())
	t.set("pipeline.merge_s", float64(mergeNS)/1e9)
	t.set("pipeline.shard_skew", float64(shardMax*shards)/float64(max(shardSum, 1)))

	start = time.Now()
	finished.Clone()
	t.set("pipeline.clone_ms", float64(time.Since(start))/1e6)
	return nil
}

// transportWindow is how many exported records may be unaccounted before
// the transport probe waits for the collector: small enough that neither
// the kernel's receive buffer nor the collector's queue overflows, so
// the probe measures the loss-free rate of the UDP path.
const transportWindow = 1024

// rttUpdates is how many update round trips the control probe times.
const rttUpdates = 500

// liveProbes measures the live transports on their own: a bare runner
// with a counting sink and a no-op route server.
func (t *tracer) liveProbes(a *archive) error {
	m := live.NewMetrics()
	var got atomic.Int64
	rn, err := live.NewRunner(context.Background(), live.RunnerConfig{}, m,
		func(time.Time, uint32, *bgp.Update) error { return nil },
		func(uint32) {},
		func(b *ipfix.RecordBatch) error { got.Add(int64(b.Len())); return nil })
	if err != nil {
		return err
	}
	defer rn.Shutdown()

	start := time.Now()
	for _, b := range a.batches {
		if err := rn.ExportFlowBatch(b); err != nil {
			return err
		}
		for m.ExportedRecords.Value()-m.CollectedRecords.Value()-m.DroppedRecords.Value() > transportWindow {
			time.Sleep(20 * time.Microsecond)
		}
	}
	if err := rn.Drain(); err != nil {
		return err
	}
	wall := time.Since(start)
	t.check(m.DroppedRecords.Value() == 0 && got.Load() == a.records,
		"transport probe lost records: %d of %d collected", got.Load(), a.records)
	t.set("live.transport_records_per_s", float64(got.Load())/wall.Seconds())

	const peer = 64512
	update := func(i int) *bgp.Update {
		p := bgp.HostPrefix(0x0a000001 + uint32(i))
		if i%2 == 1 {
			return &bgp.Update{Withdrawn: []bgp.Prefix{bgp.HostPrefix(0x0a000001 + uint32(i-1))}}
		}
		return &bgp.Update{
			Attrs: bgp.PathAttrs{
				Origin: bgp.OriginIGP, ASPath: []uint32{peer},
				NextHop: routeserver.BlackholeNextHop, Communities: bgp.Communities{bgp.Blackhole},
			},
			NLRI: []bgp.Prefix{p},
		}
	}
	ts := a.meta.Start
	roundTrip := func(i int) error {
		if err := rn.SendUpdate(ts.Add(time.Duration(i)*time.Second), peer, update(i)); err != nil {
			return err
		}
		return rn.Barrier()
	}
	if err := roundTrip(0); err != nil { // dials and establishes the session
		return err
	}
	start = time.Now()
	for i := 1; i <= rttUpdates; i++ {
		if err := roundTrip(i); err != nil {
			return err
		}
	}
	t.set("live.update_rtt_us", float64(time.Since(start))/1e3/rttUpdates)
	t.check(m.UpdatesDelivered.Value() == rttUpdates+1,
		"control probe delivered %d of %d updates", m.UpdatesDelivered.Value(), rttUpdates+1)
	return nil
}

// run is the whole traced repetition. Untraced runs of the batch path
// come first: they are the reference the mirrors must reproduce and the
// base of the tracing overhead.
func (t *tracer) run() {
	t.walls = map[string]time.Duration{}
	dir := filepath.Join(t.root, "untraced")
	// Each untraced stage runs right before its mirror, both from a
	// collected heap, so that the machine's drift between the two — which
	// is what the overhead share and the mirror gap would otherwise show —
	// stays small.
	runtime.GC()
	start := time.Now()
	sum, err := rtbh.Simulate(t.cfg, dir)
	simD := time.Since(start)
	if !t.op("simulate", err) {
		return
	}
	runtime.GC()
	mirrorDir := filepath.Join(t.root, "mirror")
	mirrored := t.op("simulate mirror", t.simulateMirror(mirrorDir))
	for _, name := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
		mirrored = t.check(sameFile(filepath.Join(mirrorDir, name), filepath.Join(dir, name)),
			"simulate mirror: %s differs from Simulate's", name) && mirrored
	}
	os.RemoveAll(mirrorDir)
	t.sampleHeap()

	// The untraced analysis runs before and after its mirror and the two
	// are averaged, so that a machine that speeds up or slows down across
	// the three does not show as overhead or as a mirror gap.
	untraced := func() ([]byte, time.Duration, time.Duration, error) {
		reg := rtbh.NewMetricsRegistry()
		runtime.GC()
		start := time.Now()
		report, _, err := t.analyzeDir(dir, 1, reg)
		return report, time.Since(start), time.Duration(reg.Snapshot().Timers["analysis.compose"].TotalNS), err
	}
	report, anaD, composeTotal, err := untraced()
	if !t.op("analyze workers=1", err) {
		return
	}
	t.refDir, t.refReport, t.refSum = dir, report, sum
	runtime.GC()
	out, finished, err := t.analyzeMirror(dir)
	mirrored = t.op("analyze mirror", err) && mirrored
	mirrored = t.check(bytes.Equal(out, report), "analyze mirror: report differs from Analyze's") && mirrored
	if again, d, c, err := untraced(); t.op("analyze workers=1 again", err) {
		t.check(bytes.Equal(again, report), "analyze: report differs between two runs")
		anaD, composeTotal = (anaD+d)/2, (composeTotal+c)/2
	}
	t.sampleHeap()
	if !mirrored {
		// A mirror that does not reproduce the program's output times
		// something else; its numbers are discarded.
		t.samples = map[string][]float64{}
		return
	}
	t.set("compose.total_s", composeTotal.Seconds())
	t.set("compose.mirror_gap", math.Abs((t.sectionSum-composeTotal).Seconds())/composeTotal.Seconds())
	t.set("proc.trace_overhead_share",
		(t.walls["simulate"]+t.walls["analyze"]).Seconds()/(simD+anaD).Seconds()-1)

	a, err := loadArchive(dir)
	if !t.op("load archive", err) {
		return
	}
	t.op("layer calls", t.layerCalls(dir, a, finished))
	t.sampleHeap()

	// The probes need the archive's batches, which the replay releases.
	t.op("live probes", t.liveProbes(a))
	t.sampleHeap()

	t.rec.rep++
	glassSpan := t.rec.begin("glass", -1)
	t.spanParent = glassSpan
	gs := t.glassReplay(a)
	t.rec.end(glassSpan)
	if gs != nil && len(gs.coldMS) > 0 {
		ingest := time.Duration(gs.ingestS * 1e9)
		t.walls["glass"] = t.rec.dur(glassSpan)
		t.row("glass", "online ingest", ingest)
		var cold, cachedD float64
		for _, ms := range gs.coldMS {
			cold += ms
		}
		for _, us := range gs.cachedUS {
			cachedD += us
		}
		t.row("glass", "cold queries (snapshot)", time.Duration(cold*1e6))
		t.row("glass", "cached queries", time.Duration(cachedD*1e3))
		t.row("glass", "(harness: collections, final check)", t.walls["glass"]-ingest-time.Duration(cold*1e6)-time.Duration(cachedD*1e3))
		t.set("online.ingest_ns_per_record", perRecordNS(ingest, a.records))
		t.set("online.records_compacted", float64(gs.compacted))
		t.set("online.retained_flows_max", float64(gs.retainedMax))
		t.set("online.snapshot_first_ms", gs.coldMS[0])
		t.set("online.snapshot_last_ms", gs.coldMS[len(gs.coldMS)-1])
		t.set("serve.cold_query_ms", median(gs.coldMS))
		t.set("serve.cached_query_p50_us", median(gs.cachedUS))
		p99, err := percentile(gs.cachedUS, 99)
		t.op("cached query p99", err)
		t.set("serve.cached_query_p99_us", p99)
		t.set("serve.response_bytes", float64(gs.respBytes))
	}
	t.sampleHeap()

	t.rec.rep++
	liveSpan := t.rec.begin("live", -1)
	t.spanParent = liveSpan
	ls := t.liveRep(0, true)
	t.rec.end(liveSpan)
	if ls != nil {
		t.walls["live"] = t.rec.dur(liveSpan)
		t.row("live", "LiveRun.Run", time.Duration(ls.runS*1e9))
		t.row("live", "Analyzer.Final", time.Duration(ls.finalS*1e9))
		t.row("live", "(harness: set-up, verification)", t.walls["live"]-time.Duration((ls.runS+ls.finalS)*1e9))
		t.set("live.run_s", ls.runS)
		t.set("live.final_s", ls.finalS)
		t.set("live.exported_records", float64(ls.exported))
		t.set("live.collected_records", float64(ls.collected))
		t.set("live.dropped_records", float64(ls.dropped))
		t.set("live.queue_dropped_datagrams", float64(ls.snap.Counter("live.ipfix.dropped_datagrams")))
		t.set("live.late_msgs", float64(ls.snap.Counter("live.ipfix.late_msgs")))
		t.set("live.decode_errors", float64(ls.snap.Counter("live.ipfix.decode_errors")))
	}
	t.sampleHeap()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if rss, err := peakRSSMB(); t.op("peak rss", err) {
		t.set("proc.peak_rss_mb", rss)
	}
	t.set("proc.heap_peak_mb", float64(t.heapPeak)/(1<<20))
	t.set("proc.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
}

// printBudget prints, per traced path, how long each layer was busy, the
// cost per flow record and the share of the path's traced wall time.
func (t *tracer) printBudget() {
	records := int64(1)
	if t.refSum != nil {
		records = max(t.refSum.FlowRecords, 1)
	}
	fmt.Fprintf(t.out, "\nbudget table (traced repetition, %d flow records)\n", records)
	fmt.Fprintf(t.out, "%-9s %-36s %10s %10s %8s\n", "path", "layer", "busy s", "ns/record", "% wall")
	for _, path := range []string{"simulate", "analyze", "glass", "live"} {
		wall, ok := t.walls[path]
		if !ok {
			continue
		}
		for _, row := range t.rows {
			if row.path != path {
				continue
			}
			fmt.Fprintf(t.out, "%-9s %-36s %10.4f %10.1f %7.1f%%\n", path, row.layer,
				row.busy.Seconds(), perRecordNS(row.busy, records), 100*row.busy.Seconds()/wall.Seconds())
		}
		fmt.Fprintf(t.out, "%-9s %-36s %10.4f %10.1f %7.1f%%\n", path, "= traced wall",
			wall.Seconds(), perRecordNS(wall, records), 100.0)
	}
}
