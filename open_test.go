package rtbh_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/mrt"
	"repro/internal/peeringdb"
)

// referenceOpen loads dir the way OpenDataset did before it read files
// side by side: one file after another, the IP-to-AS table through
// encoding/json and the control archive through mrt.ReadAll, expanding
// each update into slices grown by append.
func referenceOpen(t *testing.T, dir string) (*analysis.Metadata, []analysis.ControlUpdate, []analysis.FlowUpdate) {
	t.Helper()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var entries []ip2as.Entry
	if err := json.Unmarshal(read(rtbh.FileIP2AS), &entries); err != nil {
		t.Fatal(err)
	}
	tbl := ip2as.New()
	for _, e := range entries {
		tbl.Add(bgp.MustParsePrefix(e.Prefix), e.ASN)
	}
	pdb, err := peeringdb.ReadJSON(bytes.NewReader(read(rtbh.FilePDB)))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := rtbh.ReferenceMetadata(dir, tbl, pdb)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := mrt.ReadAll(bytes.NewReader(read(rtbh.FileUpdates)))
	if err != nil {
		t.Fatal(err)
	}
	var updates []analysis.ControlUpdate
	var flows []analysis.FlowUpdate
	for _, rec := range recs {
		upd, isUpdate, err := rec.DecodeUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if isUpdate {
			updates = analysis.ExpandUpdate(updates, rec.Timestamp, rec.PeerAS, upd)
			flows = analysis.ExpandFlowSpec(flows, rec.Timestamp, rec.PeerAS, upd)
		}
	}
	analysis.SortUpdates(updates)
	analysis.SortFlowUpdates(flows)
	return meta, updates, flows
}

// TestOpenDatasetMatchesReference: the concurrent open with the strict
// IP-to-AS reader and the exactly sized control streams loads what the
// sequential reference loads, under every mitigation policy.
func TestOpenDatasetMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world per mitigation policy")
	}
	for _, policy := range []string{"", "flowspec", "escalate", "mixed"} {
		cfg := goldenConfig()
		cfg.MitigationPolicy = policy
		dir := t.TempDir()
		if _, err := rtbh.Simulate(cfg, dir); err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		ds, err := rtbh.OpenDataset(dir)
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		meta, updates, flows := referenceOpen(t, dir)
		switch {
		case !reflect.DeepEqual(ds.Meta.IP2AS.Entries(), meta.IP2AS.Entries()):
			t.Errorf("policy %q: IP-to-AS entries differ from the reference", policy)
		case !reflect.DeepEqual(ds.Meta.PDB, meta.PDB):
			t.Errorf("policy %q: PeeringDB differs from the reference", policy)
		case !reflect.DeepEqual(ds.Meta, meta):
			t.Errorf("policy %q: metadata differs from the reference", policy)
		case !reflect.DeepEqual(ds.Updates, updates):
			t.Errorf("policy %q: %d control updates, reference %d, or their contents differ", policy, len(ds.Updates), len(updates))
		case !reflect.DeepEqual(ds.FlowUpdates, flows):
			t.Errorf("policy %q: %d FlowSpec updates, reference %d, or their contents differ", policy, len(ds.FlowUpdates), len(flows))
		case cap(ds.Updates) != len(ds.Updates) || cap(ds.FlowUpdates) != len(ds.FlowUpdates):
			t.Errorf("policy %q: update streams over-allocated: cap %d/%d for len %d/%d", policy,
				cap(ds.Updates), cap(ds.FlowUpdates), len(ds.Updates), len(ds.FlowUpdates))
		}
		if len(updates) == 0 || (policy != "" && len(flows) == 0) {
			t.Errorf("policy %q: %d control and %d FlowSpec updates: the world signals nothing", policy, len(updates), len(flows))
		}
	}
}

// linkDataset makes a copy of the dataset in src under a fresh directory,
// hard-linking (or copying) each file but those in skip.
func linkDataset(t *testing.T, src string, skip ...string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if slices.Contains(skip, e.Name()) {
			continue
		}
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if os.Link(from, to) == nil {
			continue
		}
		b, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// settledGoroutines waits briefly for the goroutine count to drop to at
// most base, and returns the count it saw last.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// openStacks returns the stacks of the goroutines still running code of
// OpenDataset other than the caller's. A goroutine OpenDataset started
// counts only while one of its frames is OpenDataset's, not once it is
// returning from the WaitGroup.Done the open has joined, or exiting.
func openStacks() string {
	buf := make([]byte, 1<<20)
	var open []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		frames := g
		if i := strings.Index(g, "\ncreated by "); i >= 0 {
			frames = g[:i]
		}
		if strings.Contains(frames, "repro.OpenDataset") && !strings.Contains(frames, "sync.(*WaitGroup).Done") {
			open = append(open, g)
		}
	}
	return strings.Join(open, "\n\n")
}

// TestOpenDatasetErrors: a missing or corrupt file makes OpenDataset fail
// with an error that names it, the same error on every run whichever
// goroutine finishes first; when several files are bad, the first of
// ip2as.json, peeringdb.json and updates.mrt is named. No goroutine
// outlives a failed open.
func TestOpenDatasetErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a test-scale world")
	}
	src := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), src); err != nil {
		t.Fatal(err)
	}
	mrtBytes, err := os.ReadFile(filepath.Join(src, rtbh.FileUpdates))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		rtbh.FileMetadata: []byte("{bad"),
		rtbh.FileIP2AS:    []byte(`[{"prefix":"10.0.0.0/8","asn":1}] trailing`),
		rtbh.FilePDB:      []byte(`[{`),
		rtbh.FileUpdates:  mrtBytes[:len(mrtBytes)-3], // a truncated last record
	}
	base := runtime.NumGoroutine()
	type tc struct {
		name    string
		missing []string
		bad     []string
		names   string // the file the error must name
	}
	var cases []tc
	for _, f := range []string{rtbh.FileMetadata, rtbh.FileIP2AS, rtbh.FilePDB, rtbh.FileUpdates} {
		cases = append(cases,
			tc{"missing " + f, []string{f}, nil, f},
			tc{"corrupt " + f, nil, []string{f}, f})
	}
	cases = append(cases,
		tc{"corrupt ip2as.json and updates.mrt", nil, []string{rtbh.FileUpdates, rtbh.FileIP2AS}, rtbh.FileIP2AS},
		tc{"corrupt peeringdb.json, missing updates.mrt", []string{rtbh.FileUpdates}, []string{rtbh.FilePDB}, rtbh.FilePDB},
		tc{"missing ip2as.json and peeringdb.json", []string{rtbh.FilePDB, rtbh.FileIP2AS}, nil, rtbh.FileIP2AS},
	)
	for _, c := range cases {
		dir := linkDataset(t, src, append(c.missing, c.bad...)...)
		for _, f := range c.bad {
			if err := os.WriteFile(filepath.Join(dir, f), corrupt[f], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var first string
		for run := 0; run < 5; run++ {
			_, err := rtbh.OpenDataset(dir)
			if err == nil {
				t.Fatalf("%s: OpenDataset succeeded", c.name)
			}
			if run == 0 {
				first = err.Error()
				if !strings.Contains(first, filepath.Join(dir, c.names)) {
					t.Errorf("%s: error %q does not name %s", c.name, first, c.names)
				}
			} else if err.Error() != first {
				t.Errorf("%s: run %d failed with %q, run 0 with %q", c.name, run, err, first)
			}
			if g := openStacks(); g != "" {
				t.Fatalf("%s: goroutines of OpenDataset outlive it:\n%s", c.name, g)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%s: %d goroutines after a failed open, %d before", c.name, n, base)
			}
		}
	}
}

// TestOpenDatasetIgnoresCorruptTruth: the ground truth is read on demand,
// so a corrupt truth.json fails only GroundTruth, never the open or the
// analysis.
func TestOpenDatasetIgnoresCorruptTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a test-scale world")
	}
	src := t.TempDir()
	if _, err := rtbh.Simulate(goldenConfig(), src); err != nil {
		t.Fatal(err)
	}
	dir := linkDataset(t, src, rtbh.FileTruth)
	if err := os.WriteFile(filepath.Join(dir, rtbh.FileTruth), []byte(`{"seed":`), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := rtbh.DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 200 * time.Millisecond
	if _, err := ds.Analyze(opts); err != nil {
		t.Fatal(err)
	}
	gt, err := ds.GroundTruth()
	if gt != nil || err == nil || !strings.Contains(err.Error(), filepath.Join(dir, rtbh.FileTruth)) {
		t.Fatalf("GroundTruth on a corrupt truth.json = %v, %v; want an error naming it", gt, err)
	}
	// The intact original still reads.
	if ds, err = rtbh.OpenDataset(src); err != nil {
		t.Fatal(err)
	}
	if gt, err := ds.GroundTruth(); gt == nil || err != nil || len(gt.Events) == 0 {
		t.Fatalf("GroundTruth = %v, %v", gt, err)
	}
	if gt, err := rtbh.NewDataset(ds.Meta, ds.Updates, nil).GroundTruth(); gt != nil || err != nil {
		t.Fatalf("in-memory GroundTruth = %v, %v; want nil, nil", gt, err)
	}
}
