package main

import (
	"io"
	"math"
	"testing"

	rtbh "repro"
)

// smokeRunner is a runner over a world shrunk until the batch and glass
// paths take well under a second each. No sockets: the live path is left
// to the benchmark proper.
func smokeRunner(t *testing.T) *runner {
	t.Helper()
	wl := workload{name: "smoke", build: func() rtbh.Config {
		cfg := rtbh.TestConfig()
		cfg.Seed = planSeed
		cfg.Members, cfg.RTBHUsers, cfg.VictimOriginASes, cfg.RemoteOriginASes = 40, 8, 10, 200
		cfg.EventsTotal, cfg.UniqueVictims = 150, 75
		return truncateDays(cfg, 8)
	}}
	r := newRunner(wl, 1, t.TempDir(), io.Discard)
	cfg, err := sizeWorld(wl.build(), smokeRecords)
	if err != nil {
		t.Fatal(err)
	}
	r.cfg = cfg
	return r
}

const smokeRecords = 20_000

func TestSmokeBatchAndGlass(t *testing.T) {
	r := smokeRunner(t)
	r.batchRep(0)
	r.batchRep(1)
	if r.refSum == nil {
		t.Fatal("no batch repetition completed")
	}
	if got := float64(r.refSum.FlowRecords); math.Abs(got-smokeRecords) > 0.05*smokeRecords {
		t.Errorf("world sized to %d records holds %v", smokeRecords, got)
	}
	a, err := loadArchive(r.refDir)
	if err != nil {
		t.Fatal(err)
	}
	if a.records != r.refSum.FlowRecords || len(a.cuts) != cutPointCount {
		t.Errorf("archive: %d records (want %d), %d cuts (want %d)", a.records, r.refSum.FlowRecords, len(a.cuts), cutPointCount)
	}
	gs := r.glassReplay(a)
	if gs == nil || len(gs.coldMS) != cutPointCount {
		t.Fatalf("glass replay answered %v cut points", gs)
	}
	res := r.reduce(nil)
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, name := range []string{"simulate_s", "analyze_s", "analyze_w1_s", "batch_wall_s", "glass_ingest_records_per_s", "snapshot_mean_ms", "glass_state_mb"} {
		if xs := r.samples[name]; len(xs) == 0 || median(xs) <= 0 {
			t.Errorf("%s: samples %v", name, xs)
		}
	}
}

// A rendered report that does not match is a failed operation, and a run
// with a failed operation is not correct (main exits non-zero on it).
func TestCorruptedReportFailsTheRun(t *testing.T) {
	r := smokeRunner(t)
	r.batchRep(0)
	if r.refReport == nil || r.failed != 0 {
		t.Fatalf("batch repetition failed (%d)", r.failed)
	}
	r.refReport[len(r.refReport)/2] ^= 0xff
	a, err := loadArchive(r.refDir)
	if err != nil {
		t.Fatal(err)
	}
	r.glassReplay(a)
	if r.failed != 1 {
		t.Errorf("%d failed operations after corrupting the reference report, want 1", r.failed)
	}
	if res := r.reduce(nil); res.Correct {
		t.Error("a run with a mismatching report must not be correct")
	}
}
