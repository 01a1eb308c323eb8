package rtbh_test

import (
	"bytes"
	"testing"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/pipeline"
)

// requireCellsInsideEvents checks the invariant the collateral probe
// relies on (collateral.Pending.Materialize): every pending cell of event
// id has its destination inside the prefix of p.Events[id], and the events
// are in ID order. The cells are read from the store's wire encoding,
// which lists each as (event ID, destination, port key, all, dropped).
// It returns the cell count.
func requireCellsInsideEvents(t *testing.T, label string, p *pipeline.Pipeline) int {
	t.Helper()
	for i, e := range p.Events {
		if e.ID != i {
			t.Fatalf("%s: event %d has ID %d", label, i, e.ID)
		}
	}
	enc, err := p.Pending.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := analysis.NewWireReader(enc)
	r.Byte() // version
	n := r.Count(5)
	for i := 0; i < n; i++ {
		id, dst := r.Int(), r.U32()
		r.U32()
		r.Varint()
		r.Varint()
		if r.Err() != nil {
			break
		}
		if id >= len(p.Events) || !p.Events[id].Prefix.Contains(dst) {
			t.Fatalf("%s: a cell of event %d is addressed to %08x, outside the event's prefix", label, id, dst)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return n
}

// TestPendingCellsInsideEventPrefix holds every pipeline that composes a
// report to the prefix invariant: the batch pass, the online analyzer's
// speculative sealed pipeline and the frozen clone a snapshot composes,
// mid-stream and at the end, and a federation's per-exchange and folded,
// remapped pipelines.
func TestPendingCellsInsideEventPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes test-scale worlds")
	}
	opts := onlineTestOpts()
	ds, flows := onlineTestDataset(t)
	p, err := ds.Pass(opts)
	if err != nil {
		t.Fatal(err)
	}
	if requireCellsInsideEvents(t, "batch", p) == 0 {
		t.Fatal("the batch pass left no pending cells")
	}

	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	fedUpd, fedFlow := 0, 0
	for _, div := range []int{2, 1} {
		u, f := len(ds.Updates)/div, len(flows)/div
		for ; fedUpd < u; fedUpd++ {
			a.ObserveControl(ds.Updates[fedUpd])
		}
		feedFlows(a, flows[fedFlow:f])
		fedFlow = f
		var sealed, frozen int
		if err := a.Pipelines(func(sp, fp *pipeline.Pipeline) {
			sealed = requireCellsInsideEvents(t, "sealed", sp)
			frozen = requireCellsInsideEvents(t, "frozen", fp)
		}); err != nil {
			t.Fatal(err)
		}
		if sealed == 0 || frozen < sealed {
			t.Fatalf("online: %d sealed cells, %d with the tail", sealed, frozen)
		}
	}

	cfg := goldenConfig()
	cfg.IXPs = 3
	merged, _ := mergeRun(t, cfg, opts)
	for _, v := range merged.IXPs {
		requireCellsInsideEvents(t, "exchange", v.Pipeline)
	}
	if requireCellsInsideEvents(t, "federated", merged.Pipeline) == 0 {
		t.Fatal("the federated pipeline holds no pending cells")
	}
}

// TestComposeConcurrentMatchesInline renders the report composed with its
// sections on goroutines of their own (Workers 0) and on the caller
// (Workers 1): on the golden world, and on an online snapshot taken
// mid-stream. The two must be byte-identical.
func TestComposeConcurrentMatchesInline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes test-scale worlds")
	}
	render := func(t *testing.T, compose func(rtbh.Options) (*rtbh.Report, error)) [2][]byte {
		var out [2][]byte
		for i, workers := range []int{0, 1} {
			opts := onlineTestOpts()
			opts.Workers = workers
			report, err := compose(opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = renderSnapshot(t, report)
		}
		return out
	}

	dir := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), dir); err != nil {
		t.Fatal(err)
	}
	golden, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, golden.Analyze); !bytes.Equal(got[0], got[1]) {
		diffLines(t, got[1], got[0])
		t.Fatal("golden world: the concurrent compose differs from the inline one")
	}

	ds, flows := onlineTestDataset(t)
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	for _, u := range ds.Updates[:len(ds.Updates)/2] {
		a.ObserveControl(u)
	}
	feedFlows(a, flows[:len(flows)/2])
	if got := render(t, a.Snapshot); !bytes.Equal(got[0], got[1]) {
		diffLines(t, got[1], got[0])
		t.Fatal("mid-stream snapshot: the concurrent compose differs from the inline one")
	}
}
