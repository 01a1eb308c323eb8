package rtbh_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis/mitigation"
	"repro/internal/analysis/pipeline"
	"repro/internal/ipfix"
	"repro/internal/textreport"
)

// TestAnalyzeParallelParity runs a scenario-generated flow archive through
// the inline pass and through the lanes and demands byte-identical
// rendered reports. This is the end-to-end face of the guarantee that how
// the pass is scheduled never shows (DESIGN.md, "Parallel pipeline"); the
// aggregator-level counterpart lives in internal/analysis/pipeline.
func TestAnalyzeParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	dir, err := os.MkdirTemp("", "rtbh-parity-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := rtbh.TestConfig()
	cfg.Seed = 0xBADC0FFEE
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}

	render := func(workers int) []byte {
		t.Helper()
		opts := rtbh.DefaultOptions()
		opts.OffsetStep = 20 * time.Millisecond
		opts.Workers = workers
		report, err := ds.Analyze(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "records %d/%d/%d/%d events %d\n",
			report.TotalRecords, report.InternalRecords,
			report.AttributedRecords, report.DroppedRecords, len(report.Events))
		textreport.RenderAll(&buf, report)
		return buf.Bytes()
	}

	ref := render(1)
	if len(ref) < 1000 {
		t.Fatalf("reference report suspiciously small (%d bytes)", len(ref))
	}
	got := render(0)
	if bytes.Equal(got, ref) {
		return
	}
	refLines, gotLines := bytes.Split(ref, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := range refLines {
		if i >= len(gotLines) || !bytes.Equal(refLines[i], gotLines[i]) {
			t.Fatalf("report diverges at line %d:\nworkers=1: %s\nworkers=0: %s", i+1, refLines[i], gotLines[i])
		}
	}
	t.Fatalf("the report at workers=0 has %d extra lines", len(gotLines)-len(refLines))
}

// TestLanesMatchInline compares state, not renderings, on the golden
// world: the marshaled operator state and the cleaning counters a batch
// pass leaves through the lanes against the inline pass's, and — at four
// cut points of the same world streamed into an online analyzer — the
// finalized state of the frozen clone's replay through the lanes against
// a speculative clone's replay on the caller. With one processor the
// default is the inline pass and both sides coincide; the package-level
// test of the same name starts the lanes whatever GOMAXPROCS is.
func TestLanesMatchInline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	dir := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}

	pass := func(workers int) (*pipeline.Pipeline, []byte) {
		t.Helper()
		pp, err := pipeline.NewParallel(ds.Meta, ds.Updates, rtbh.DefaultOptions().Delta, workers)
		if err != nil {
			t.Fatal(err)
		}
		pp.BindFlow(mitigation.NewIndex(ds.FlowUpdates, ds.Meta.End))
		if err := pp.RunBatches(ds.EachFlowBatch); err != nil {
			t.Fatal(err)
		}
		blob, err := pp.Pipeline().MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		return pp.Pipeline(), blob
	}
	inline, want := pass(1)
	lanes, got := pass(0)
	if inline.TotalRecords == 0 || inline.DroppedRecords == 0 {
		t.Fatalf("golden world too thin: %d records, %d dropped", inline.TotalRecords, inline.DroppedRecords)
	}
	if lanes.TotalRecords != inline.TotalRecords || lanes.InternalRecords != inline.InternalRecords ||
		lanes.AttributedRecords != inline.AttributedRecords || lanes.DroppedRecords != inline.DroppedRecords {
		t.Errorf("counters: lanes %d/%d/%d/%d, inline %d/%d/%d/%d",
			lanes.TotalRecords, lanes.InternalRecords, lanes.AttributedRecords, lanes.DroppedRecords,
			inline.TotalRecords, inline.InternalRecords, inline.AttributedRecords, inline.DroppedRecords)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("batch pass: the lanes leave %d state bytes that differ from the inline pass's %d", len(got), len(want))
	}

	var flows []rtbh.FlowRecord
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		flows = append(flows, b.Recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tailReplaysAgree(t, ds, flows, 4) == 0 {
		t.Fatal("no cut point had both sealed state and an unsealed tail; the comparison was vacuous")
	}
}

// TestLanesSourceError cuts the flow archive in the middle of a message:
// Analyze must return the reader's error at either worker count, and by
// then every goroutine of the pass has exited.
func TestLanesSourceError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	dir := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), dir); err != nil {
		t.Fatal(err)
	}
	flows := filepath.Join(dir, rtbh.FileFlows)
	st, err := os.Stat(flows)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(flows, st.Size()*2/3+7); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1} {
		before := runtime.NumGoroutine()
		opts := rtbh.DefaultOptions()
		opts.Workers = workers
		report, err := ds.Analyze(opts)
		if report != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("workers=%d: Analyze over a truncated archive = %v, %v; want the reader's unexpected-EOF error", workers, report, err)
		}
		// A goroutine that has signalled its exit may still be counted for
		// an instant.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: %d goroutines after the failed pass, %d before it", workers, after, before)
		}
	}
}
