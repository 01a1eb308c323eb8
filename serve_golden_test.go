package rtbh_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/detect"
	"repro/internal/ipfix"
	"repro/internal/serve"
)

// serveGoldenDir holds one JSON fixture per looking-glass endpoint,
// maintained with the shared -update flag (see golden_test.go).
const serveGoldenDir = "testdata/golden/serve"

// serveClock is a manually stepped clock shared with the server under
// test, so cache taken-at stamps and history capture times are fixture
// constants rather than wall-clock noise.
type serveClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *serveClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *serveClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestServeGoldenEndpoints drives the golden scenario to completion
// through the online analyzer, serves it through the looking-glass
// layer, and byte-compares every endpoint's JSON body against its
// checked-in fixture. The server runs on an injected clock and fixed
// Info, so the bodies are fully deterministic; any intended change to
// the wire format is a deliberate -update.
func TestServeGoldenEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	dir := t.TempDir()
	cfg := goldenConfig()
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	// A detector replayed over the same flow stream backs the
	// /api/detections fixture; the final Tick at the period end settles
	// the announce/withdraw lifecycle deterministically.
	det, err := detect.New(detect.Config{
		SamplingRate: ds.Meta.SamplingRate,
		BlackholeMAC: ds.Meta.BlackholeMAC,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Updates {
		a.ObserveControl(ds.Updates[i])
	}
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		a.ObserveFlowBatch(b)
		det.ObserveFlowBatch(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	det.Tick(ds.Meta.End)

	opts := onlineTestOpts()
	clock := &serveClock{t: time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)}
	srv, err := serve.New(serve.Config{
		Source:     a,
		Options:    opts,
		MaxAge:     time.Hour,
		Clock:      clock.now,
		Info:       map[string]string{"scale": "test", "fixture": "golden"},
		Detections: det.Status,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two history captures five minutes apart, then advance to the
	// serving instant.
	if err := srv.CaptureHistory(); err != nil {
		t.Fatal(err)
	}
	clock.advance(5 * time.Minute)
	if err := srv.CaptureHistory(); err != nil {
		t.Fatal(err)
	}
	clock.advance(5 * time.Minute)

	endpoints := []struct {
		name string
		path string
	}{
		{"summary", "/api/summary"},
		{"mitigation_rtbh_only", "/api/mitigation"},
		{"events", "/api/events"},
		{"active", "/api/active"},
		{"collateral", "/api/collateral"},
		{"usecases", "/api/usecases"},
		{"victims", "/api/victims"},
		{"detections", "/api/detections"},
		{"history", "/api/history"},
		{"history_at", "/api/summary?at=2026-01-02T03:04:00Z"}, // floors to the 03:00 capture
		{"health", "/api/health"},                              // last: history + uptime are settled
	}
	for _, ep := range endpoints {
		t.Run(ep.name, func(t *testing.T) {
			checkServeFixture(t, srv, ep.path, ep.name)
		})
	}
}

// checkServeFixture GETs path from srv and byte-compares the body
// against testdata/golden/serve/<name>.json, rewriting it under -update.
func checkServeFixture(t *testing.T, srv *serve.Server, path, name string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, rr.Code, rr.Body.Bytes())
	}
	got, err := io.ReadAll(rr.Result().Body)
	if err != nil {
		t.Fatal(err)
	}

	fixture := filepath.Join(serveGoldenDir, name+".json")
	if *updateGolden {
		if err := os.MkdirAll(serveGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", fixture, len(got))
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(got, want) {
		diffLines(t, want, got)
		t.Fatalf("GET %s does not match %s (run with -update after intended changes)", path, fixture)
	}
}

// TestServeGoldenMitigation fixtures /api/mitigation over a world where
// the fine-grained path actually fires: the golden scenario re-run under
// the escalating mitigation policy, replayed through the online analyzer
// the way an archive replay would (control, FlowSpec and flow streams
// interleaved by the analyzer's own sealing discipline).
func TestServeGoldenMitigation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and analyzes a full test-scale world")
	}
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.MitigationPolicy = "escalate"
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		t.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	for i := range ds.Updates {
		a.ObserveControl(ds.Updates[i])
	}
	for i := range ds.FlowUpdates {
		a.ObserveFlowSpec(ds.FlowUpdates[i])
	}
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		a.ObserveFlowBatch(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	clock := &serveClock{t: time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)}
	srv, err := serve.New(serve.Config{
		Source:  a,
		Options: onlineTestOpts(),
		MaxAge:  time.Hour,
		Clock:   clock.now,
		Info:    map[string]string{"scale": "test", "fixture": "golden-mitigation"},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkServeFixture(t, srv, "/api/mitigation", "mitigation")
}
