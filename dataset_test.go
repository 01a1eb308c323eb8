package rtbh

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ipfix"
	"repro/internal/scenario"
)

// smallDataset simulates a tiny world into a fresh directory.
func smallDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := TestConfig()
	cfg.Days = 6
	cfg.EventsTotal = 80
	cfg.UniqueVictims = 40
	cfg.Members = 40
	cfg.RTBHUsers = 8
	cfg.VictimOriginASes = 10
	cfg.RemoteOriginASes = 100
	if _, err := Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSimulateWritesAllFiles(t *testing.T) {
	dir := smallDataset(t)
	for _, name := range []string{
		FileUpdates, FileFlows, FileMetadata, FileIP2AS, FilePDB, FileTruth,
	} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestDatasetDirs: the one layout rule, on every shape of directory the
// binaries can be pointed at.
func TestDatasetDirs(t *testing.T) {
	root := t.TempDir()
	all := []string{FileMetadata, FileUpdates, FileFlows, FileIP2AS, FilePDB}
	// mk creates dir under root with one empty file per name in each of subs.
	mk := func(dir string, subs []string, names ...string) string {
		for _, sub := range subs {
			if err := os.MkdirAll(filepath.Join(root, dir, sub), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if err := os.WriteFile(filepath.Join(root, dir, sub, name), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		return filepath.Join(root, dir)
	}
	noMeta := mk("nometa", []string{"ixp0", "ixp2"}, all...)
	mk("nometa", []string{"ixp1"}, all[1:]...)
	for _, tc := range []struct {
		name, dir string
		n         int    // datasets found, or
		wantErr   string // what the error names
	}{
		{"single dataset", mk("single", []string{"."}, all...), 1, ""},
		{"ixp0..2", mk("fed", []string{"ixp0", "ixp1", "ixp2"}, all...), 3, ""},
		{"ixp0 and ixp2", mk("gap", []string{"ixp0", "ixp2"}, all...), 0, filepath.Join("gap", "ixp1", FileMetadata)},
		{"ixp1 without metadata.json", noMeta, 0, filepath.Join("nometa", "ixp1", FileMetadata)},
		{"single without its flows", mk("partial", []string{"."}, FileMetadata, FileUpdates), 0, filepath.Join("partial", FileFlows)},
		{"empty directory", mk("empty", []string{"."}), 0, "rtbh-sim -out"},
		{"no directory", filepath.Join(root, "nope"), 0, "does not exist (generate one with rtbh-sim -out"},
		{"plain file", filepath.Join(mk("file", []string{"."}, "f"), "f"), 0, "is not a directory"},
	} {
		dirs, err := DatasetDirs(tc.dir)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
			}
		case err != nil || len(dirs) != tc.n:
			t.Errorf("%s: %d datasets, err %v; want %d", tc.name, len(dirs), err, tc.n)
		case tc.n == 1 && dirs[0] != tc.dir, tc.n > 1 && dirs[2] != filepath.Join(tc.dir, "ixp2"):
			t.Errorf("%s: dirs = %v", tc.name, dirs)
		}
	}
}

func TestOpenDatasetWithoutGroundTruth(t *testing.T) {
	// A real-world dataset has no truth.json; analysis must still work.
	dir := smallDataset(t)
	if err := os.Remove(filepath.Join(dir, FileTruth)); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gt, err := ds.GroundTruth(); gt != nil || err != nil {
		t.Fatal("phantom ground truth")
	}
	opts := DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 200 * time.Millisecond
	if _, err := ds.Analyze(opts); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDatasetMissingFiles(t *testing.T) {
	dir := smallDataset(t)
	for _, name := range []string{FileMetadata, FileIP2AS, FilePDB, FileUpdates} {
		broken := t.TempDir()
		// Copy everything except one file.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == name {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(broken, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenDataset(broken); err == nil {
			t.Fatalf("OpenDataset succeeded without %s", name)
		}
	}
}

func TestOpenDatasetCorruptMetadata(t *testing.T) {
	dir := smallDataset(t)
	if err := os.WriteFile(filepath.Join(dir, FileMetadata), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDataset(dir); err == nil {
		t.Fatal("corrupt metadata accepted")
	}
}


func TestSimulateRejectsInvalidConfig(t *testing.T) {
	cfg := TestConfig()
	cfg.Days = 0
	if _, err := Simulate(cfg, t.TempDir()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEachFlowRepeatable(t *testing.T) {
	dir := smallDataset(t)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := func() (n int64) {
		ds.EachFlowBatch(func(b *recordBatch) error { n += int64(b.Len()); return nil })
		return
	}
	a, b := count(), count()
	if a == 0 || a != b {
		t.Fatalf("EachFlowBatch not repeatable: %d vs %d", a, b)
	}
}

func TestInMemoryDataset(t *testing.T) {
	dir := smallDataset(t)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	var flows []FlowRecord
	ds.EachFlowBatch(func(b *recordBatch) error { flows = append(flows, b.Recs...); return nil })

	mem := NewDataset(ds.Meta, ds.Updates, flows)
	opts := DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 200 * time.Millisecond
	r1, err := mem.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ds.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	// In-memory and file-backed datasets must agree exactly.
	if r1.TotalRecords != r2.TotalRecords || r1.DroppedRecords != r2.DroppedRecords {
		t.Fatalf("record counters differ: %d/%d vs %d/%d",
			r1.TotalRecords, r1.DroppedRecords, r2.TotalRecords, r2.DroppedRecords)
	}
	if len(r1.Events) != len(r2.Events) || r1.Table2 != r2.Table2 {
		t.Fatalf("analysis differs: %d/%d events, %+v vs %+v",
			len(r1.Events), len(r2.Events), r1.Table2, r2.Table2)
	}
}

// datasetWriterFor plans a small world and opens a dataset writer for
// it on dir.
func datasetWriterFor(t *testing.T, dir string) (*datasetWriter, Config) {
	t.Helper()
	cfg := TestConfig()
	cfg.Days = 6
	cfg.EventsTotal = 80
	cfg.UniqueVictims = 40
	w, err := scenario.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := newDatasetWriter(dir, w)
	if err != nil {
		t.Fatal(err)
	}
	return dw, cfg
}

// requireIncomplete checks that an aborted run's directory cannot pass
// for a dataset: no metadata.json, and DatasetDirs refuses it.
func requireIncomplete(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, FileMetadata)); !os.IsNotExist(err) {
		t.Errorf("%s after a failed finish: %v, want it absent", FileMetadata, err)
	}
	if _, err := DatasetDirs(dir); err == nil {
		t.Error("DatasetDirs accepts the directory of a failed run")
	}
}

// TestDatasetWriterReportsRejectedControlMessage pins that a control
// message the MRT writer refuses is an error of the run, not a record
// silently missing from updates.mrt: the collector hook cannot return
// it, so finish must, and the directory is left incomplete.
func TestDatasetWriterReportsRejectedControlMessage(t *testing.T) {
	dir := t.TempDir()
	dw, cfg := datasetWriterFor(t, dir)
	defer dw.close()
	control := dw.sinks().Control
	control(cfg.Start, 1001, 1, make([]byte, 10)) // shorter than a BGP header
	control(cfg.Start, 1001, 1, make([]byte, 5))
	err := dw.finish()
	if err == nil {
		t.Fatal("finish succeeded after a control message was rejected")
	}
	if !strings.Contains(err.Error(), "10 bytes") {
		t.Errorf("finish reports %q, want the first rejection (the 10-byte message)", err)
	}
	dw.close()
	requireIncomplete(t, dir)
}

// TestDatasetWriterReportsFailedFlowWrite is its twin for the flow
// archive, whose writes happen on the IPFIX writer's encoder goroutine:
// a write that fails there fails finish, and the directory — here one an
// earlier run had completed — is left without metadata.json.
func TestDatasetWriterReportsFailedFlowWrite(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileMetadata), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dw, cfg := datasetWriterFor(t, dir)
	defer dw.close()
	b := &ipfix.RecordBatch{Recs: make([]ipfix.FlowRecord, 5000)}
	for i := range b.Recs {
		b.Recs[i] = ipfix.FlowRecord{Start: cfg.Start, Packets: 1, Bytes: 64}
	}
	dw.flowFile.Close() // every write to the archive fails from here on
	if err := dw.sinks().Flow(b); err != nil {
		t.Fatal(err) // copied, not yet written
	}
	err := dw.finish()
	if err == nil {
		t.Fatal("finish succeeded after the flow archive failed")
	}
	if !strings.Contains(err.Error(), "IPFIX") || !errors.Is(err, os.ErrClosed) {
		t.Errorf("finish reports %q, want the failed IPFIX write", err)
	}
	dw.close()
	requireIncomplete(t, dir)
}
