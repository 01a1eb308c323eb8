package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/analysis"
	"repro/internal/analysis/collateral"
	"repro/internal/analysis/events"
	"repro/internal/analysis/load"
	"repro/internal/analysis/usecase"
	"repro/internal/bgp"
	"repro/internal/obs"
)

// fakeClock is a manually advanced clock for TTL-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

var testPeriodStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// testReport builds a small hand-rolled report: two events on distinct
// prefixes (one open-ended), efficacy for event 0 only, and enough of
// the figure results to exercise every endpoint's join logic.
func testReport() *rtbh.Report {
	ev0 := &rtbh.Event{
		ID:     0,
		Prefix: bgp.Prefix{Addr: 0x0A000001, Len: 32}, // 10.0.0.1/32
		Peer:   65001, OriginAS: 64512,
		Episodes: []events.Episode{
			{Announce: testPeriodStart.Add(1 * time.Hour), Withdraw: testPeriodStart.Add(2 * time.Hour)},
			{Announce: testPeriodStart.Add(3 * time.Hour), Withdraw: testPeriodStart.Add(5 * time.Hour)},
		},
		Announcements: 3,
	}
	ev1 := &rtbh.Event{
		ID:     1,
		Prefix: bgp.Prefix{Addr: 0x0A000002, Len: 32}, // 10.0.0.2/32
		Peer:   65002, OriginAS: 64513,
		Episodes: []events.Episode{
			{Announce: testPeriodStart.Add(6 * time.Hour)}, // open-ended
		},
		Announcements: 1,
	}
	return &rtbh.Report{
		TotalRecords:      1000,
		InternalRecords:   900,
		AttributedRecords: 400,
		DroppedRecords:    300,
		EventsWithData:    1,
		Fig5AvgPkts:       0.75,
		Fig5AvgBytes:      0.7,
		Events:            []*rtbh.Event{ev0, ev1},
		Verdicts: []rtbh.Verdict{
			{EventID: 0, HasPreData: true, Within10Min: true},
			{EventID: 1},
		},
		EventDrops: []rtbh.EventDropStat{
			{ID: 0, PrefixLen: 32, Counter: analysis.Counter{
				DroppedPkts: 300, ForwardedPkts: 100,
				DroppedBytes: 30000, ForwardedBytes: 10000,
			}},
		},
		Fig3: &load.Result{AvgActive: 1.5, MaxActive: 2, MaxMessagesPerMinute: 4},
		Fig18: &collateral.Result{
			Events:      1,
			AllPkts:     []int64{400},
			DroppedPkts: []int64{300},
			MaxAll:      400,
		},
		Fig19: &usecase.Result{
			PerEvent: []usecase.EventClass{
				{EventID: 0, Class: usecase.ClassInfrastructureProtection},
				{EventID: 1, Class: usecase.ClassOther},
			},
			Counts: map[usecase.Class]int{
				usecase.ClassInfrastructureProtection: 1,
				usecase.ClassOther:                    1,
			},
			Shares: map[usecase.Class]float64{
				usecase.ClassInfrastructureProtection: 0.5,
				usecase.ClassOther:                    0.5,
			},
		},
	}
}

// fakeSource is a Source whose Snapshot returns a canned report and
// counts its calls.
type fakeSource struct {
	mu        sync.Mutex
	rep       *rtbh.Report
	err       error
	snapshots int
	updates   int
	flows     int64
	watermark time.Time
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		rep:       testReport(),
		updates:   8,
		flows:     1000,
		watermark: testPeriodStart.Add(4 * time.Hour),
	}
}

func (f *fakeSource) Snapshot(rtbh.Options) (*rtbh.Report, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.snapshots++
	if f.err != nil {
		return nil, f.err
	}
	return f.rep, nil
}

func (f *fakeSource) snapshotCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshots
}

func (f *fakeSource) Counts() (int, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.updates, f.flows
}

func (f *fakeSource) Watermark() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watermark
}

func (f *fakeSource) Period() (time.Time, time.Time) {
	return testPeriodStart, testPeriodStart.Add(24 * time.Hour)
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *fakeSource, *fakeClock) {
	t.Helper()
	src := newFakeSource()
	clock := newFakeClock(testPeriodStart.Add(12 * time.Hour))
	cfg := Config{
		Source: src,
		MaxAge: 5 * time.Second,
		Clock:  clock.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, src, clock
}

// get performs a request against the server's handler and decodes the
// JSON body into out (when out is non-nil), returning the status code.
func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	body, _ := io.ReadAll(rr.Result().Body)
	if ct := rr.Result().Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q, want application/json", path, ct)
	}
	if !strings.HasSuffix(string(body), "\n") {
		t.Fatalf("GET %s: body does not end in newline", path)
	}
	if out != nil && rr.Code == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding body: %v\n%s", path, err, body)
		}
	}
	return rr.Code
}

// TestNewRequiresSource also pins that New, the one place these
// settings are checked, rejects negative ones.
func TestNewRequiresSource(t *testing.T) {
	src := newFakeSource()
	for _, cfg := range []Config{
		{},
		{Source: src, MaxAge: -time.Second},
		{Source: src, HistoryInterval: -time.Minute},
		{Source: src, HistoryDepth: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %+v", cfg)
		}
	}
}

func TestCacheTTLSemantics(t *testing.T) {
	s, src, clock := newTestServer(t, nil)

	// First request misses and snapshots.
	var sum SummaryView
	if code := get(t, s, "/api/summary", &sum); code != http.StatusOK {
		t.Fatalf("summary: status %d", code)
	}
	if src.snapshotCalls() != 1 {
		t.Fatalf("snapshots after first request = %d, want 1", src.snapshotCalls())
	}
	if sum.TotalRecords != 1000 || sum.Events != 2 {
		t.Fatalf("summary = %+v", sum)
	}

	// Within the TTL the cache serves without touching the source.
	clock.advance(2 * time.Second)
	for i := 0; i < 5; i++ {
		if code := get(t, s, "/api/summary", nil); code != http.StatusOK {
			t.Fatalf("cached summary: status %d", code)
		}
	}
	if src.snapshotCalls() != 1 {
		t.Fatalf("snapshots after cached requests = %d, want 1", src.snapshotCalls())
	}

	// A tighter per-request maxAge forces a refresh.
	if code := get(t, s, "/api/summary?maxAge=1s", nil); code != http.StatusOK {
		t.Fatalf("tight maxAge: status %d", code)
	}
	if src.snapshotCalls() != 2 {
		t.Fatalf("snapshots after maxAge=1s = %d, want 2", src.snapshotCalls())
	}

	// Past the default TTL the entry expires.
	clock.advance(6 * time.Second)
	if code := get(t, s, "/api/summary", nil); code != http.StatusOK {
		t.Fatalf("expired summary: status %d", code)
	}
	if src.snapshotCalls() != 3 {
		t.Fatalf("snapshots after expiry = %d, want 3", src.snapshotCalls())
	}

	// maxAge=0 always snapshots, even back-to-back.
	for i := 0; i < 3; i++ {
		if code := get(t, s, "/api/summary?maxAge=0", nil); code != http.StatusOK {
			t.Fatalf("maxAge=0: status %d", code)
		}
	}
	if src.snapshotCalls() != 6 {
		t.Fatalf("snapshots after three maxAge=0 = %d, want 6", src.snapshotCalls())
	}

	// A zero Config.MaxAge makes every plain request do the same.
	s, src, _ = newTestServer(t, func(cfg *Config) { cfg.MaxAge = 0 })
	for i := 0; i < 3; i++ {
		if code := get(t, s, "/api/summary", nil); code != http.StatusOK {
			t.Fatalf("MaxAge 0: status %d", code)
		}
	}
	if src.snapshotCalls() != 3 {
		t.Fatalf("snapshots after three plain requests with MaxAge 0 = %d, want 3", src.snapshotCalls())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	clock := newFakeClock(testPeriodStart)
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	var calls int
	var mu sync.Mutex
	cache := newSnapshotCache(clock.now, func() (*rtbh.Report, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		started <- struct{}{}
		<-block
		return testReport(), nil
	})

	// One leader takes the snapshot; followers arriving while it is in
	// flight adopt its result instead of stacking refreshes.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, _, err := cache.get(time.Minute)
			if err != nil || rep == nil {
				t.Errorf("get: rep=%v err=%v", rep, err)
			}
		}()
	}
	<-started // leader is inside refresh
	// Give followers a moment to queue on the in-flight channel, then
	// release the leader.
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()

	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 1 {
		t.Fatalf("refresh ran %d times for 8 concurrent readers, want 1", got)
	}
	if h := cache.hits.Value(); h != 7 {
		t.Fatalf("cache hits = %d, want 7", h)
	}
	if m := cache.misses.Value(); m != 1 {
		t.Fatalf("cache misses = %d, want 1", m)
	}
}

func TestCacheRefreshError(t *testing.T) {
	s, src, _ := newTestServer(t, nil)
	src.mu.Lock()
	src.err = fmt.Errorf("analyzer exploded")
	src.mu.Unlock()

	var errBody map[string]string
	req := httptest.NewRequest(http.MethodGet, "/api/summary", nil)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if err := json.NewDecoder(rr.Result().Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBody["error"], "analyzer exploded") {
		t.Fatalf("error body = %v", errBody)
	}
}

func TestBadQueryParams(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	for _, path := range []string{
		"/api/summary?maxAge=bogus",
		"/api/summary?maxAge=-1s",
		"/api/summary?at=not-a-time",
		"/api/active?t=not-a-time",
		"/api/history?since=not-a-time",
		"/api/summary?maxage=0",
		"/api/events?since=2019-01-01T00:00:00Z",
		"/api/history?at=2019-01-01T00:00:00Z",
		"/api/health?x=1",
	} {
		if code := get(t, s, path, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
}

func TestUnknownPathAndMethod(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	if code := get(t, s, "/api/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/summary", strings.NewReader("{}"))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rr.Code)
	}
}

func TestHistoryWindow(t *testing.T) {
	s, _, clock := newTestServer(t, func(cfg *Config) {
		cfg.HistoryDepth = 3
		cfg.HistoryInterval = time.Minute
	})

	// Empty ring: ?at= has nothing to serve.
	if code := get(t, s, "/api/summary?at=2019-01-01T12:00:00Z", nil); code != http.StatusNotFound {
		t.Fatalf("at with empty ring: status %d, want 404", code)
	}

	// Capture four entries a minute apart; depth 3 evicts the first.
	var captureTimes []time.Time
	for i := 0; i < 4; i++ {
		captureTimes = append(captureTimes, clock.now())
		if err := s.CaptureHistory(); err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Minute)
	}

	var hist HistoryView
	if code := get(t, s, "/api/history", &hist); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if len(hist.Entries) != 3 {
		t.Fatalf("history entries = %d, want 3 (depth cap)", len(hist.Entries))
	}
	if !hist.Entries[0].At.Equal(captureTimes[1]) {
		t.Fatalf("oldest retained = %v, want %v", hist.Entries[0].At, captureTimes[1])
	}

	// since= trims the left edge inclusively.
	var trimmed HistoryView
	path := "/api/history?since=" + captureTimes[2].UTC().Format(time.RFC3339Nano)
	if code := get(t, s, path, &trimmed); code != http.StatusOK {
		t.Fatalf("history since: status %d", code)
	}
	if len(trimmed.Entries) != 2 || !trimmed.Entries[0].At.Equal(captureTimes[2]) {
		t.Fatalf("since window = %+v, want 2 entries from %v", trimmed.Entries, captureTimes[2])
	}

	// ?at= floors to the newest entry at or before t.
	mid := captureTimes[2].Add(30 * time.Second)
	var sum SummaryView
	path = "/api/summary?at=" + mid.UTC().Format(time.RFC3339Nano)
	if code := get(t, s, path, &sum); code != http.StatusOK {
		t.Fatalf("summary at: status %d", code)
	}
	if !sum.TakenAt.Equal(captureTimes[2]) {
		t.Fatalf("at floor: taken_at = %v, want %v", sum.TakenAt, captureTimes[2])
	}

	// Before the retained window: 404, not the oldest entry.
	before := captureTimes[1].Add(-time.Second)
	path = "/api/summary?at=" + before.UTC().Format(time.RFC3339Nano)
	if code := get(t, s, path, nil); code != http.StatusNotFound {
		t.Fatalf("at before window: status %d, want 404", code)
	}
}

func TestRingRejectsNonIncreasing(t *testing.T) {
	r := newHistoryRing(4)
	rep := testReport()
	at := testPeriodStart
	if !r.add(at, rep) {
		t.Fatal("first add rejected")
	}
	if r.add(at, rep) {
		t.Fatal("same-timestamp add accepted")
	}
	if r.add(at.Add(-time.Second), rep) {
		t.Fatal("backwards add accepted")
	}
	if r.len() != 1 {
		t.Fatalf("len = %d, want 1", r.len())
	}
}

func TestHealthEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, func(cfg *Config) {
		cfg.Info = map[string]string{"scale": "test"}
	})
	var h HealthView
	if code := get(t, s, "/api/health", &h); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if h.Status != "ok" || h.Updates != 8 || h.Flows != 1000 {
		t.Fatalf("health = %+v", h)
	}
	if h.Info["scale"] != "test" {
		t.Fatalf("info = %v", h.Info)
	}
	var names []string
	for _, e := range endpoints {
		names = append(names, e.name)
	}
	if !slices.Equal(h.Endpoints, names) {
		t.Fatalf("endpoints = %v, want the table's %v", h.Endpoints, names)
	}
	// Zero history settings keep their defaults.
	if h.History.Depth != DefaultHistoryDepth || h.History.IntervalMS != DefaultHistoryInterval.Milliseconds() {
		t.Fatalf("history = %+v, want the defaults", h.History)
	}
}

func TestEventsEndpointJoins(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	var ev EventsView
	if code := get(t, s, "/api/events", &ev); code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if ev.Count != 2 || len(ev.Events) != 2 {
		t.Fatalf("events = %+v", ev)
	}
	e0 := ev.Events[0]
	if e0.Prefix != "10.0.0.1/32" || e0.Class != "infrastructure-protection" || !e0.AnomalyWithin10Min {
		t.Fatalf("event 0 = %+v", e0)
	}
	if e0.Efficacy == nil || e0.Efficacy.DroppedPkts != 300 || e0.Efficacy.DropRatePkts != 0.75 {
		t.Fatalf("event 0 efficacy = %+v", e0.Efficacy)
	}
	if e0.Open || e0.Episodes != 2 {
		t.Fatalf("event 0 shape = %+v", e0)
	}
	e1 := ev.Events[1]
	if !e1.Open || e1.Efficacy != nil || e1.Class != "other" || e1.AnomalyWithin10Min {
		t.Fatalf("event 1 = %+v", e1)
	}
}

func TestActiveEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, nil)

	// Default instant is the watermark (T+4h): episode 2 of event 0 is
	// active (3h..5h) and event 1 has not started.
	var act ActiveView
	if code := get(t, s, "/api/active", &act); code != http.StatusOK {
		t.Fatalf("active: status %d", code)
	}
	if act.Active != 1 || len(act.EventIDs) != 1 || act.EventIDs[0] != 0 {
		t.Fatalf("active@watermark = %+v", act)
	}
	if act.ByPrefixLen[32] != 1 {
		t.Fatalf("by_prefix_len = %v", act.ByPrefixLen)
	}
	if act.AvgActive != 1.5 || act.MaxActive != 2 {
		t.Fatalf("load summary = %+v", act)
	}

	// Explicit ?t= at T+7h: only the open-ended event 1.
	at := testPeriodStart.Add(7 * time.Hour)
	var later ActiveView
	path := "/api/active?t=" + at.UTC().Format(time.RFC3339Nano)
	if code := get(t, s, path, &later); code != http.StatusOK {
		t.Fatalf("active?t: status %d", code)
	}
	if later.Active != 1 || later.EventIDs[0] != 1 {
		t.Fatalf("active@t+7h = %+v", later)
	}
}

func TestCollateralAndUseCases(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	var col CollateralView
	if code := get(t, s, "/api/collateral", &col); code != http.StatusOK {
		t.Fatalf("collateral: status %d", code)
	}
	if col.Events != 1 || col.MaxAllPkts != 400 || len(col.DroppedPkts) != 1 {
		t.Fatalf("collateral = %+v", col)
	}

	var uc UseCasesView
	if code := get(t, s, "/api/usecases", &uc); code != http.StatusOK {
		t.Fatalf("usecases: status %d", code)
	}
	if uc.Counts["infrastructure-protection"] != 1 || uc.Shares["other"] != 0.5 {
		t.Fatalf("usecases = %+v", uc)
	}
}

func TestVictimsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	var v VictimsView
	if code := get(t, s, "/api/victims", &v); code != http.StatusOK {
		t.Fatalf("victims: status %d", code)
	}
	if v.Count != 2 || len(v.Victims) != 2 {
		t.Fatalf("victims = %+v", v)
	}
	// Sorted by dropped packets: the event-0 victim first.
	if v.Victims[0].Prefix != "10.0.0.1/32" || v.Victims[0].DroppedPkts != 300 {
		t.Fatalf("victim 0 = %+v", v.Victims[0])
	}
	if v.Victims[0].DropRatePkts != 0.75 || v.Victims[0].Classes["infrastructure-protection"] != 1 {
		t.Fatalf("victim 0 stats = %+v", v.Victims[0])
	}
	if v.Victims[1].Prefix != "10.0.0.2/32" || v.Victims[1].DroppedPkts != 0 {
		t.Fatalf("victim 1 = %+v", v.Victims[1])
	}
}

func TestHistoryDeltas(t *testing.T) {
	src := newFakeSource()
	clock := newFakeClock(testPeriodStart)
	s, err := New(Config{Source: src, Clock: clock.now})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.CaptureHistory(); err != nil {
		t.Fatal(err)
	}
	// Grow the world between captures.
	grown := testReport()
	grown.TotalRecords = 1500
	grown.Events = append(grown.Events, &rtbh.Event{
		ID:     2,
		Prefix: bgp.Prefix{Addr: 0x0A000003, Len: 32},
		Peer:   65003, OriginAS: 64514,
		Episodes:      []events.Episode{{Announce: testPeriodStart.Add(8 * time.Hour)}},
		Announcements: 1,
	})
	src.mu.Lock()
	src.rep = grown
	src.mu.Unlock()
	clock.advance(5 * time.Minute)
	if err := s.CaptureHistory(); err != nil {
		t.Fatal(err)
	}

	var hist HistoryView
	if code := get(t, s, "/api/history", &hist); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if len(hist.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(hist.Entries))
	}
	e0, e1 := hist.Entries[0], hist.Entries[1]
	if e0.DeltaRecords != 0 || e0.DeltaEvents != 0 {
		t.Fatalf("first entry has deltas: %+v", e0)
	}
	if e1.DeltaRecords != 500 || e1.DeltaEvents != 1 {
		t.Fatalf("second entry deltas = %+v, want +500 records, +1 event", e1)
	}
}

func TestServeMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, _ := newTestServer(t, func(cfg *Config) { cfg.Metrics = reg })

	get(t, s, "/api/summary", nil) // miss
	get(t, s, "/api/summary", nil) // hit
	get(t, s, "/api/nope", nil)    // error

	snap := reg.Snapshot()
	if snap.Counter("serve.requests.summary") != 2 {
		t.Fatalf("summary requests = %d", snap.Counter("serve.requests.summary"))
	}
	if snap.Counter("serve.cache_misses") != 1 || snap.Counter("serve.cache_hits") != 1 {
		t.Fatalf("cache counters = miss:%d hit:%d",
			snap.Counter("serve.cache_misses"), snap.Counter("serve.cache_hits"))
	}
	if snap.Counter("serve.errors") != 1 {
		t.Fatalf("errors = %d", snap.Counter("serve.errors"))
	}
	if n := snap.Counter("serve.requests.health"); n != 0 {
		t.Fatalf("unknown path counted as %d health checks", n)
	}
	if !snap.Has("serve.latency_ms") || !snap.Has("serve.history_entries") {
		t.Fatal("latency histogram or history gauge missing")
	}
}

func TestStartAndClose(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr.String() + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health over TCP: status %d", resp.StatusCode)
	}
	var h HealthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
