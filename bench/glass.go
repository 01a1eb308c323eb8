package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/ipfix"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textreport"
)

// cutPointCount is how many times the glass replay stops to query.
const cutPointCount = 8

// archive is a written dataset loaded for the glass replay: the parsed
// control plane and every flow batch held in memory, so that the replay
// measures the analyzer and not the disk.
type archive struct {
	meta        *analysis.Metadata
	updates     []analysis.ControlUpdate
	flowUpdates []analysis.FlowUpdate
	batches     []*ipfix.RecordBatch
	records     int64
	// ctlBefore[i] and fsBefore[i] are how many control and FlowSpec
	// updates the replay has fed once batch i is due: every update
	// stamped no later than the batch's first record, which is the order
	// a live run delivers them in.
	ctlBefore, fsBefore []int
	// cuts are the batch indices after which the replay queries.
	cuts []int
}

// loadArchive reads the dataset in dir into memory and lays out the
// replay schedule.
func loadArchive(dir string) (*archive, error) {
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	a := &archive{meta: ds.Meta, updates: ds.Updates, flowUpdates: ds.FlowUpdates}
	var lens []int
	err = ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		if b.Len() == 0 {
			return nil
		}
		own := ipfix.GetBatch() // held for the archive's lifetime, never released
		own.Recs = append(own.Recs, b.Recs...)
		a.batches = append(a.batches, own)
		a.records += int64(b.Len())
		lens = append(lens, b.Len())
		return nil
	})
	if err != nil {
		return nil, err
	}
	ci, fi := 0, 0
	for _, b := range a.batches {
		first := b.Recs[0].Start
		for ci < len(a.updates) && !a.updates[ci].Time.After(first) {
			ci++
		}
		for fi < len(a.flowUpdates) && !a.flowUpdates[fi].Time.After(first) {
			fi++
		}
		a.ctlBefore = append(a.ctlBefore, ci)
		a.fsBefore = append(a.fsBefore, fi)
	}
	a.cuts = cutPoints(lens, cutPointCount)
	return a, nil
}

// cutPoints returns, for k = 1..n, the index of the batch with which the
// replay has fed at least k/n of all records. The last cut is always the
// last batch. Fewer than n batches yield fewer (distinct) cuts.
func cutPoints(batchLens []int, n int) []int {
	var total int64
	for _, l := range batchLens {
		total += int64(l)
	}
	var cuts []int
	var seen int64
	k := 1
	for i, l := range batchLens {
		seen += int64(l)
		if k <= n && seen*int64(n) >= int64(k)*total {
			cuts = append(cuts, i)
			for k <= n && seen*int64(n) >= int64(k)*total {
				k++
			}
		}
	}
	return cuts
}

// glassStats is what one replay reports.
type glassStats struct {
	ingestS     float64
	coldMS      []float64 // one cold /api/summary per cut point
	cachedUS    []float64 // traced runs only
	respBytes   int64
	retainedMax int64
	compacted   int64
	stateMB     float64 // live heap after the replay, archive released
}

// cachedPerCut is how many cached queries a traced replay issues after
// each cut point; with 8 cuts that is 4,000 samples, so the p99 has 40
// beyond it.
const cachedPerCut = 500

var cachedEndpoints = []string{"/api/summary", "/api/events", "/api/victims", "/api/collateral", "/api/mitigation"}

// glassReplay feeds the archive in timestamp order into an online
// analyzer behind the looking-glass handler, and releases the archive's
// batches when it is done. One closed-loop client:
// ingest pauses while a query runs, so every query does the same work on
// every run. The traced repetition also times cached queries at each cut.
func (r *runner) glassReplay(a *archive) *glassStats {
	reg := rtbh.NewMetricsRegistry()
	oa := rtbh.NewOnlineAnalyzer(a.meta)
	oa.RegisterMetrics(reg)
	// MaxAge is long so that a query without ?maxAge= is always served
	// from the snapshot the preceding cold query cached.
	srv, err := serve.New(serve.Config{Source: oa, Options: r.opts, MaxAge: time.Hour})
	if !r.op("glass server", err) {
		return nil
	}
	h := srv.Handler()
	get := func(path string) (time.Duration, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		return time.Since(start), rec
	}
	// Ingest up to a cut and the cold query at it form one section each,
	// so both are normalised by the readings around them.
	var ingestNorm float64
	var coldNorm []float64

	gs := &glassStats{}
	var prev serve.SummaryView
	ci, fi, next := 0, 0, 0 // next counts the cuts reached
	feedControl := func(toC, toF int) {
		for ; ci < toC; ci++ {
			oa.ObserveControl(a.updates[ci])
		}
		for ; fi < toF; fi++ {
			oa.ObserveFlowSpec(a.flowUpdates[fi])
		}
	}
	from := 0
	for _, cut := range a.cuts {
		next++
		ingestD, ingestK := r.section("glass.ingest", func() {
			for i := from; i <= cut; i++ {
				feedControl(a.ctlBefore[i], a.fsBefore[i])
				oa.ObserveFlowBatch(a.batches[i])
			}
			if next == len(a.cuts) {
				feedControl(len(a.updates), len(a.flowUpdates))
			}
		})
		from = cut + 1
		gs.ingestS += ingestD.Seconds()
		ingestNorm += ingestD.Seconds() * ingestK

		var d time.Duration
		var rec *httptest.ResponseRecorder
		_, coldK := r.section("glass.cold_query", func() { d, rec = get("/api/summary?maxAge=0") })
		var view serve.SummaryView
		ok := rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &view) == nil
		if r.check(ok, "cut %d: GET /api/summary answered %d", next, rec.Code) {
			gs.coldMS = append(gs.coldMS, float64(d)/1e6)
			coldNorm = append(coldNorm, float64(d)/1e6*coldK)
			r.check(view.TotalRecords >= prev.TotalRecords && view.Events >= prev.Events,
				"cut %d: counts went backwards (%d records, %d events after %d, %d)",
				next, view.TotalRecords, view.Events, prev.TotalRecords, prev.Events)
			prev = view
		}
		if r.rec != nil {
			r.rec.timed("glass.cached_queries", r.spanParent, func() {
				for q := 0; q < cachedPerCut; q++ {
					d, rec := get(cachedEndpoints[q%len(cachedEndpoints)])
					if r.check(rec.Code == http.StatusOK, "cut %d: cached query answered %d", next, rec.Code) {
						gs.cachedUS = append(gs.cachedUS, float64(d)/1e3)
						gs.respBytes += int64(rec.Body.Len())
					}
				}
			})
		}
		gs.retainedMax = max(gs.retainedMax, reg.Snapshot().Gauge("online.retained_flows"))
	}

	report, err := oa.Snapshot(r.opts)
	if r.op("glass final snapshot", err) {
		var buf bytes.Buffer
		textreport.RenderAll(&buf, report)
		r.check(bytes.Equal(buf.Bytes(), r.refReport), "glass: report after the last cut differs from the batch report")
	}
	gs.compacted = reg.Snapshot().Counter("online.records_compacted")

	// What the looking glass holds once the stream has ended: the heap
	// still reachable after a collection, with the harness's own copy of
	// the archive released. Unlike the process's peak RSS this does not
	// depend on where the collector's cycles happened to fall.
	a.batches = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gs.stateMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(srv) // and through it the analyzer
	if len(gs.coldMS) > 0 {
		r.raw["glass_ingest_records_per_s"] = []float64{float64(a.records) / gs.ingestS}
		r.add("glass_ingest_records_per_s", float64(a.records)/ingestNorm)
		r.raw["snapshot_mean_ms"] = []float64{stats.Mean(gs.coldMS)}
		r.add("snapshot_mean_ms", stats.Mean(coldNorm))
		r.add("glass_state_mb", gs.stateMB)
	} else {
		r.op("glass replay", fmt.Errorf("no cut point answered"))
	}
	return gs
}
