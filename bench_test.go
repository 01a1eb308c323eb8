package rtbh

// The two benchmarks here are the quiet-process reading of what the
// per-operator goroutines buy over the inline pass (ROADMAP 6b): the same
// in-memory batches through both, with no decode and no collector sharing
// the cores. Everything end to end is measured by bench/ (see its README).

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis/pipeline"
	"repro/internal/ipfix"
)

// benchFlows caches a simulated test-scale dataset with its flow archive
// in memory, chunked into dispatch-sized record batches, so the pipeline
// benchmarks time aggregation, not file decoding. Each batch holds one
// permanent reference so the lanes' retain/release cycles never recycle
// it.
var benchFlows struct {
	once    sync.Once
	ds      *Dataset
	total   int
	batches []*recordBatch
	err     error
}

func loadBenchFlows(b *testing.B) (*Dataset, int, []*recordBatch) {
	b.Helper()
	benchFlows.once.Do(func() {
		dir := b.TempDir()
		if _, benchFlows.err = Simulate(TestConfig(), dir); benchFlows.err != nil {
			return
		}
		ds, err := OpenDataset(dir)
		if err != nil {
			benchFlows.err = err
			return
		}
		var recs []FlowRecord
		benchFlows.err = ds.EachFlowBatch(func(b *recordBatch) error {
			recs = append(recs, b.Recs...)
			return nil
		})
		benchFlows.ds, benchFlows.total = ds, len(recs)
		const batchSize = 4096 // records per dispatch batch
		for i := 0; i < len(recs); i += batchSize {
			bb := &recordBatch{Recs: recs[i:min(i+batchSize, len(recs))]}
			bb.Retain() // permanent reference: keep out of the pool
			benchFlows.batches = append(benchFlows.batches, bb)
		}
	})
	if benchFlows.err != nil {
		b.Fatal(benchFlows.err)
	}
	return benchFlows.ds, benchFlows.total, benchFlows.batches
}

// runPipelineBench times the streaming pass over the in-memory archive at
// the given worker count (1 = the inline pass, 0 = one goroutine per
// operator), through the batch driver the production path uses. Besides
// records/s it reports allocs/record over the observation phase alone
// (pipeline construction excluded) — the steady-state figure the batch
// path is designed to hold at ~0.
func runPipelineBench(b *testing.B, workers int) {
	ds, total, batches := loadBenchFlows(b)
	src := func(fn ipfix.BatchSink) error {
		for _, bb := range batches {
			if err := fn(bb); err != nil {
				return err
			}
		}
		return nil
	}
	delta := DefaultOptions().Delta
	var ms runtime.MemStats
	var observeMallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp, err := pipeline.NewParallel(ds.Meta, ds.Updates, delta, workers)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := pp.RunBatches(src); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		observeMallocs += ms.Mallocs - before
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/secs, "records/s")
	}
	if n := total * b.N; n > 0 {
		b.ReportMetric(float64(observeMallocs)/float64(n), "allocs/record")
	}
}

// BenchmarkPipelineSequential is the single-pass baseline: attribution and
// every operator feed on the calling goroutine.
func BenchmarkPipelineSequential(b *testing.B) { runPipelineBench(b, 1) }

// BenchmarkPipelineLanes times the same pass with one goroutine per
// operator feed behind the source's attribution (the default; the inline
// pass again when GOMAXPROCS is 1).
func BenchmarkPipelineLanes(b *testing.B) { runPipelineBench(b, 0) }
