// Package serve is the looking-glass layer over a live analysis: an
// HTTP+JSON API that lets many concurrent clients query the state of an
// rtbh.OnlineAnalyzer — per-event efficacy, collateral damage, active
// blackhole counts, victim and use-case breakdowns — while the
// measurement streams are still being ingested.
//
// Requests never touch the ingest path. Every data endpoint is a view
// of one immutable report produced by the analyzer's copy-on-snapshot
// Snapshot; a TTL cache (per-query ?maxAge=, default Config.MaxAge)
// bounds how often a snapshot is actually taken, and a rolling ring of
// periodic snapshots serves history and delta queries (?at=, ?since=)
// without re-analyzing anything. See DESIGN.md, "Serving layer".
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	rtbh "repro"
	"repro/internal/analysis/mitigation"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/obs"
)

// DefaultHistoryInterval and DefaultHistoryDepth fill Config zero
// values; DefaultMaxAge is rtbh-live's -serve-max-age default.
const (
	DefaultMaxAge          = 5 * time.Second
	DefaultHistoryInterval = 5 * time.Minute
	DefaultHistoryDepth    = 288 // a day at the 5-minute cadence
)

// Source is the slice of rtbh.OnlineAnalyzer the server reads. Snapshot
// must be safe to call concurrently with ingest and must return a report
// the caller may retain and share (the analyzer's copy-on-snapshot
// contract guarantees both).
type Source interface {
	Snapshot(opts rtbh.Options) (*rtbh.Report, error)
	Counts() (updates int, flows int64)
	Watermark() time.Time
	Period() (start, end time.Time)
}

// Config parameterizes a Server. New rejects negative durations and
// depths.
type Config struct {
	// Source is the live analyzer to serve. Required.
	Source Source
	// Options are the analysis options every snapshot is composed with
	// (Options.Delta must match the analyzer's construction-time delta).
	Options rtbh.Options
	// MaxAge is the snapshot TTL of a request that does not carry
	// ?maxAge=. Zero takes a fresh snapshot per request, as ?maxAge=0
	// does for one query.
	MaxAge time.Duration
	// HistoryInterval is the ring-store capture cadence (RunHistory);
	// zero selects DefaultHistoryInterval.
	HistoryInterval time.Duration
	// HistoryDepth is how many periodic snapshots the ring retains; zero
	// selects DefaultHistoryDepth.
	HistoryDepth int
	// Clock overrides time.Now, for tests that need deterministic
	// taken-at stamps and TTL expiry.
	Clock func() time.Time
	// Info is static run metadata echoed by /api/health (scale, seed,
	// chaos profile, ...).
	Info map[string]string
	// Detections, when non-nil, backs /api/detections: it returns the
	// closed-loop detector's current status (rtbh.LiveRun.Detector's
	// Status). When nil the endpoint answers 404.
	Detections func() *detect.Status
	// Metrics, when non-nil, receives the serving-layer metrics
	// ("serve.*": per-endpoint request counters, a latency histogram,
	// cache hit/miss counters, a history-size gauge).
	Metrics *obs.Registry
}

// serveMetrics is the optional obs instrumentation.
type serveMetrics struct {
	requests map[string]*obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// Server is the looking-glass HTTP server. Construct with New, mount
// Handler on any mux or call Start to listen.
type Server struct {
	cfg     Config
	clock   func() time.Time
	cache   *snapshotCache
	ring    *historyRing
	mux     *http.ServeMux
	names   []string // the endpoint table's names, for /api/health
	started time.Time
	m       *serveMetrics

	srv *http.Server
	ln  net.Listener
}

// endpoint is one entry of the API table, which is the whole API
// surface: the route /api/<name>, the serve.requests.<name> counter,
// /api/health's list and the query check all come from it. params are
// the query parameters the endpoint accepts; one that accepts ?at= is a
// report view, handed the snapshot ?at= or ?maxAge= selects (snapshot).
type endpoint struct {
	name   string
	params []string
	view   func(s *Server, q url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError)
}

// snapshotParams choose a report view's snapshot.
var snapshotParams = []string{"at", "maxAge"}

// endpoints lists the API, in the order /api/health reports it.
var endpoints = []endpoint{
	{"health", nil, (*Server).handleHealth},
	{"summary", snapshotParams, (*Server).handleSummary},
	{"events", snapshotParams, (*Server).handleEvents},
	{"active", []string{"at", "maxAge", "t"}, (*Server).handleActive},
	{"collateral", snapshotParams, (*Server).handleCollateral},
	{"usecases", snapshotParams, (*Server).handleUseCases},
	{"victims", snapshotParams, (*Server).handleVictims},
	{"mitigation", snapshotParams, (*Server).handleMitigation},
	{"detections", nil, (*Server).handleDetections},
	{"history", []string{"since"}, (*Server).handleHistory},
}

// New builds a server over cfg.Source. It registers metrics when
// cfg.Metrics is set and returns an error on a missing source or a
// negative setting.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Source == nil:
		return nil, fmt.Errorf("serve: Config.Source is required")
	case cfg.MaxAge < 0:
		return nil, fmt.Errorf("serve: MaxAge must be >= 0 (0 snapshots on every request), got %v", cfg.MaxAge)
	case cfg.HistoryInterval < 0:
		return nil, fmt.Errorf("serve: HistoryInterval must be >= 0 (0 keeps %v), got %v", DefaultHistoryInterval, cfg.HistoryInterval)
	case cfg.HistoryDepth < 0:
		return nil, fmt.Errorf("serve: HistoryDepth must be >= 0 (0 keeps %d), got %d", DefaultHistoryDepth, cfg.HistoryDepth)
	}
	if cfg.HistoryInterval == 0 {
		cfg.HistoryInterval = DefaultHistoryInterval
	}
	if cfg.HistoryDepth == 0 {
		cfg.HistoryDepth = DefaultHistoryDepth
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		cfg:     cfg,
		clock:   clock,
		ring:    newHistoryRing(cfg.HistoryDepth),
		mux:     http.NewServeMux(),
		started: clock(),
	}
	s.cache = newSnapshotCache(clock, func() (*rtbh.Report, error) {
		return cfg.Source.Snapshot(cfg.Options)
	})
	reg := cfg.Metrics
	if reg != nil {
		s.m = &serveMetrics{
			requests: make(map[string]*obs.Counter, len(endpoints)),
			errors:   reg.Counter("serve.errors"),
			latency: reg.Histogram("serve.latency_ms",
				1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000),
		}
		reg.RegisterCounter("serve.cache_hits", s.cache.hits)
		reg.RegisterCounter("serve.cache_misses", s.cache.misses)
		reg.GaugeFunc("serve.history_entries", func() int64 { return int64(s.ring.len()) })
	}
	for _, e := range endpoints {
		s.names = append(s.names, e.name)
		if reg != nil {
			s.m.requests[e.name] = reg.Counter("serve.requests." + e.name)
		}
		s.mux.Handle("/api/"+e.name, s.handle(e))
	}
	// The zero endpoint answers unknown paths, counted under serve.errors only.
	s.mux.Handle("/", s.handle(endpoint{}))
	return s, nil
}

// Handler returns the server's HTTP handler, for mounting on an
// existing mux or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in a background goroutine, returning the
// bound address (useful with port 0). Close stops the listener.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: binding %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Close stops a Start-ed listener. Safe to call when never started.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// CaptureHistory takes a fresh snapshot now and appends it to the ring
// store. RunHistory calls it on a ticker; tests call it directly.
func (s *Server) CaptureHistory() error {
	rep, taken, err := s.cache.get(0)
	if err != nil {
		return err
	}
	s.ring.add(taken, rep)
	return nil
}

// RunHistory captures a ring snapshot every Config.HistoryInterval until
// done is closed (or the context-shaped channel is cancelled). Run it in
// its own goroutine; capture errors are skipped — the next tick retries.
func (s *Server) RunHistory(done <-chan struct{}) {
	tick := time.NewTicker(s.cfg.HistoryInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			_ = s.CaptureHistory()
		}
	}
}

// --- request plumbing ---

// httpError is a handler failure with a status code; the wrapper renders
// it as {"error": ...} JSON.
type httpError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) *httpError {
	return &httpError{http.StatusNotFound, fmt.Sprintf(format, args...)}
}

func internalErr(err error) *httpError {
	return &httpError{http.StatusInternalServerError, err.Error()}
}

// handle wraps an endpoint: metrics, JSON rendering.
func (s *Server) handle(e endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.m != nil {
			if c := s.m.requests[e.name]; c != nil {
				c.Add(1)
			}
		}
		v, herr := s.answer(e, r)
		if herr != nil {
			s.writeError(w, herr)
		} else {
			s.writeJSON(w, http.StatusOK, v)
		}
		if s.m != nil {
			s.m.latency.Observe(time.Since(start).Milliseconds())
		}
	})
}

// answer checks a request's method, path and query parameters against
// its endpoint and renders the view.
func (s *Server) answer(e endpoint, r *http.Request) (any, *httpError) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return nil, &httpError{http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (GET only)", r.Method)}
	}
	if e.view == nil {
		return nil, notFound("unknown path %q (endpoints: /api/{%s})",
			r.URL.Path, strings.Join(s.names, ","))
	}
	q := r.URL.Query()
	for k := range q {
		if !slices.Contains(e.params, k) {
			return nil, badRequest("/api/%s takes no ?%s= (its query parameters: %q)", e.name, k, e.params)
		}
	}
	rep, taken, herr := s.snapshot(e, q)
	if herr != nil {
		return nil, herr
	}
	return e.view(s, q, rep, taken)
}

func (s *Server) writeError(w http.ResponseWriter, herr *httpError) {
	if s.m != nil {
		s.m.errors.Add(1)
	}
	s.writeJSON(w, herr.status, map[string]string{"error": herr.msg})
}

// writeJSON renders v as indented JSON with a trailing newline. The
// encoding is stable (encoding/json sorts map keys), so golden fixtures
// byte-compare.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// timeParam parses the RFC 3339 query parameter name; absent, it is
// the zero time.
func timeParam(q url.Values, name string) (time.Time, *httpError) {
	v := q.Get(name)
	if v == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, v)
	if err != nil {
		return time.Time{}, badRequest("invalid %s=%q: %v (want RFC 3339)", name, v, err)
	}
	return t, nil
}

// snapshot resolves which report a report view serves (none for other
// views): ?at= reads the ring store ("state as of at"), otherwise the
// TTL cache with the request's ?maxAge= (default Config.MaxAge).
func (s *Server) snapshot(e endpoint, q url.Values) (*rtbh.Report, time.Time, *httpError) {
	if !slices.Contains(e.params, "at") {
		return nil, time.Time{}, nil
	}
	t, herr := timeParam(q, "at")
	if herr != nil {
		return nil, time.Time{}, herr
	}
	if !t.IsZero() {
		e, ok := s.ring.at(t)
		if !ok {
			oldest, newest := s.ring.bounds()
			if oldest.IsZero() {
				return nil, time.Time{}, notFound("no history retained yet")
			}
			return nil, time.Time{}, notFound("no snapshot at or before %s (history covers %s..%s)",
				t.UTC().Format(time.RFC3339Nano), oldest.UTC().Format(time.RFC3339Nano),
				newest.UTC().Format(time.RFC3339Nano))
		}
		return e.rep, e.at, nil
	}
	maxAge := s.cfg.MaxAge
	if v := q.Get("maxAge"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, time.Time{}, badRequest("invalid maxAge=%q: %v (want a Go duration, e.g. 5s)", v, err)
		}
		if d < 0 {
			return nil, time.Time{}, badRequest("maxAge must be >= 0, got %v", d)
		}
		maxAge = d
	}
	rep, taken, err := s.cache.get(maxAge)
	if err != nil {
		return nil, time.Time{}, internalErr(err)
	}
	return rep, taken, nil
}

// --- endpoint views ---

// HealthView is /api/health: liveness plus enough run context to tell
// which world and stream position the server is looking at. It never
// takes a snapshot, so it answers even while a first snapshot is slow.
type HealthView struct {
	Status      string            `json:"status"`
	Now         time.Time         `json:"now"`
	UptimeMS    int64             `json:"uptime_ms"`
	PeriodStart time.Time         `json:"period_start"`
	PeriodEnd   time.Time         `json:"period_end"`
	Watermark   time.Time         `json:"watermark"`
	Updates     int               `json:"updates"`
	Flows       int64             `json:"flows"`
	History     HistoryStatusView `json:"history"`
	Info        map[string]string `json:"info,omitempty"`
	Endpoints   []string          `json:"endpoints"`
}

// HistoryStatusView summarizes the ring store.
type HistoryStatusView struct {
	Entries    int       `json:"entries"`
	Depth      int       `json:"depth"`
	IntervalMS int64     `json:"interval_ms"`
	Oldest     time.Time `json:"oldest,omitempty"`
	Newest     time.Time `json:"newest,omitempty"`
}

func (s *Server) handleHealth(url.Values, *rtbh.Report, time.Time) (any, *httpError) {
	now := s.clock()
	updates, flows := s.cfg.Source.Counts()
	start, end := s.cfg.Source.Period()
	oldest, newest := s.ring.bounds()
	return &HealthView{
		Status:      "ok",
		Now:         now.UTC(),
		UptimeMS:    now.Sub(s.started).Milliseconds(),
		PeriodStart: start.UTC(),
		PeriodEnd:   end.UTC(),
		Watermark:   s.cfg.Source.Watermark().UTC(),
		Updates:     updates,
		Flows:       flows,
		History: HistoryStatusView{
			Entries:    s.ring.len(),
			Depth:      s.cfg.HistoryDepth,
			IntervalMS: s.cfg.HistoryInterval.Milliseconds(),
			Oldest:     oldest.UTC(),
			Newest:     newest.UTC(),
		},
		Info:      s.cfg.Info,
		Endpoints: s.names,
	}, nil
}

// SummaryView is /api/summary: the report's cleaning/attribution
// counters and headline drop rates.
type SummaryView struct {
	TakenAt           time.Time `json:"taken_at"`
	TotalRecords      int64     `json:"total_records"`
	InternalRecords   int64     `json:"internal_records"`
	AttributedRecords int64     `json:"attributed_records"`
	DroppedRecords    int64     `json:"dropped_records"`
	Events            int       `json:"events"`
	EventsWithData    int       `json:"events_with_data"`
	AvgDropRatePkts   float64   `json:"avg_drop_rate_pkts"`
	AvgDropRateBytes  float64   `json:"avg_drop_rate_bytes"`
}

func (s *Server) handleSummary(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	return &SummaryView{
		TakenAt:           taken.UTC(),
		TotalRecords:      rep.TotalRecords,
		InternalRecords:   rep.InternalRecords,
		AttributedRecords: rep.AttributedRecords,
		DroppedRecords:    rep.DroppedRecords,
		Events:            len(rep.Events),
		EventsWithData:    rep.EventsWithData,
		AvgDropRatePkts:   rep.Fig5AvgPkts,
		AvgDropRateBytes:  rep.Fig5AvgBytes,
	}, nil
}

// EfficacyView is one event's drop tally while its blackhole was active.
type EfficacyView struct {
	DroppedPkts    int64   `json:"dropped_pkts"`
	ForwardedPkts  int64   `json:"forwarded_pkts"`
	DroppedBytes   int64   `json:"dropped_bytes"`
	ForwardedBytes int64   `json:"forwarded_bytes"`
	DropRatePkts   float64 `json:"drop_rate_pkts"`
	DropRateBytes  float64 `json:"drop_rate_bytes"`
}

// EventView is one merged RTBH event joined with its efficacy tally,
// anomaly verdict and use-case class.
type EventView struct {
	ID                 int           `json:"id"`
	Prefix             string        `json:"prefix"`
	PeerAS             uint32        `json:"peer_as"`
	OriginAS           uint32        `json:"origin_as"`
	Start              time.Time     `json:"start"`
	End                time.Time     `json:"end"`
	Open               bool          `json:"open"`
	Episodes           int           `json:"episodes"`
	Announcements      int           `json:"announcements"`
	Class              string        `json:"class"`
	AnomalyWithin10Min bool          `json:"anomaly_within_10min"`
	Efficacy           *EfficacyView `json:"efficacy,omitempty"`
}

// EventsView is /api/events.
type EventsView struct {
	TakenAt time.Time   `json:"taken_at"`
	Count   int         `json:"count"`
	Events  []EventView `json:"events"`
}

// eventJoins indexes a report's per-event efficacy tallies and use-case
// classes by event ID: the joins /api/events and /api/victims both make.
func eventJoins(rep *rtbh.Report) (drops map[int]*rtbh.EventDropStat, classes map[int]string) {
	drops = make(map[int]*rtbh.EventDropStat, len(rep.EventDrops))
	for i := range rep.EventDrops {
		drops[rep.EventDrops[i].ID] = &rep.EventDrops[i]
	}
	classes = make(map[int]string)
	if rep.Fig19 != nil {
		for _, ec := range rep.Fig19.PerEvent {
			classes[ec.EventID] = ec.Class.String()
		}
	}
	return drops, classes
}

func (s *Server) handleEvents(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	_, end := s.cfg.Source.Period()

	drops, classes := eventJoins(rep)
	anomalies := make(map[int]bool, len(rep.Verdicts))
	for i := range rep.Verdicts {
		anomalies[rep.Verdicts[i].EventID] = rep.Verdicts[i].Within10Min
	}

	out := &EventsView{TakenAt: taken.UTC(), Count: len(rep.Events)}
	out.Events = make([]EventView, 0, len(rep.Events))
	for _, e := range rep.Events {
		v := EventView{
			ID:                 e.ID,
			Prefix:             e.Prefix.String(),
			PeerAS:             e.Peer,
			OriginAS:           e.OriginAS,
			Start:              e.Start().UTC(),
			End:                e.End(end).UTC(),
			Open:               e.OpenEnded(),
			Episodes:           len(e.Episodes),
			Announcements:      e.Announcements,
			Class:              classes[e.ID],
			AnomalyWithin10Min: anomalies[e.ID],
		}
		if d := drops[e.ID]; d != nil {
			v.Efficacy = &EfficacyView{
				DroppedPkts:    d.DroppedPkts,
				ForwardedPkts:  d.ForwardedPkts,
				DroppedBytes:   d.DroppedBytes,
				ForwardedBytes: d.ForwardedBytes,
				DropRatePkts:   d.DropRatePkts(),
				DropRateBytes:  d.DropRateBytes(),
			}
		}
		out.Events = append(out.Events, v)
	}
	return out, nil
}

// ActiveView is /api/active: how many blackholes were active at the
// evaluation instant (?t=, default the control-plane watermark), plus
// the Fig 3 load summary over the whole snapshot.
type ActiveView struct {
	TakenAt     time.Time   `json:"taken_at"`
	At          time.Time   `json:"at"`
	Active      int         `json:"active"`
	ByPrefixLen map[int]int `json:"by_prefix_len"`
	EventIDs    []int       `json:"event_ids"`
	AvgActive   float64     `json:"avg_active"`
	MaxActive   int         `json:"max_active"`
	PeakMsgsMin int         `json:"peak_messages_per_minute"`
}

func (s *Server) handleActive(q url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	start, end := s.cfg.Source.Period()

	at, herr := timeParam(q, "t")
	if herr != nil {
		return nil, herr
	}
	if at.IsZero() {
		at = s.cfg.Source.Watermark()
	}
	if at.IsZero() {
		at = start
	}

	out := &ActiveView{
		TakenAt:     taken.UTC(),
		At:          at.UTC(),
		ByPrefixLen: make(map[int]int),
	}
	for _, e := range rep.Events {
		if !e.ActiveAt(at, end) {
			continue
		}
		out.Active++
		out.ByPrefixLen[int(e.Prefix.Len)]++
		out.EventIDs = append(out.EventIDs, e.ID)
	}
	sort.Ints(out.EventIDs)
	if rep.Fig3 != nil {
		out.AvgActive = rep.Fig3.AvgActive
		out.MaxActive = rep.Fig3.MaxActive
		out.PeakMsgsMin = rep.Fig3.MaxMessagesPerMinute
	}
	return out, nil
}

// CollateralView is /api/collateral: the Fig 18 damage distribution.
type CollateralView struct {
	TakenAt     time.Time `json:"taken_at"`
	Events      int       `json:"events"`
	MaxAllPkts  int64     `json:"max_all_pkts"`
	AllPkts     []int64   `json:"all_pkts"`
	DroppedPkts []int64   `json:"dropped_pkts"`
}

func (s *Server) handleCollateral(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	out := &CollateralView{TakenAt: taken.UTC()}
	if rep.Fig18 != nil {
		out.Events = rep.Fig18.Events
		out.MaxAllPkts = rep.Fig18.MaxAll
		out.AllPkts = rep.Fig18.AllPkts
		out.DroppedPkts = rep.Fig18.DroppedPkts
	}
	return out, nil
}

// UseCasesView is /api/usecases: the Fig 19 classification.
type UseCasesView struct {
	TakenAt             time.Time          `json:"taken_at"`
	Counts              map[string]int     `json:"counts"`
	Shares              map[string]float64 `json:"shares"`
	SquatPrefixes       int                `json:"squat_prefixes"`
	SquatASes           int                `json:"squat_ases"`
	LowTrafficHostShare float64            `json:"low_traffic_host_share"`
}

func (s *Server) handleUseCases(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	out := &UseCasesView{
		TakenAt: taken.UTC(),
		Counts:  make(map[string]int),
		Shares:  make(map[string]float64),
	}
	if rep.Fig19 != nil {
		for class, n := range rep.Fig19.Counts {
			out.Counts[class.String()] = n
		}
		for class, share := range rep.Fig19.Shares {
			out.Shares[class.String()] = share
		}
		out.SquatPrefixes = rep.Fig19.SquatPrefixes
		out.SquatASes = rep.Fig19.SquatASes
		out.LowTrafficHostShare = rep.Fig19.LowTrafficHostShare
	}
	return out, nil
}

// VictimView aggregates one blackholed prefix across its events.
type VictimView struct {
	Prefix        string         `json:"prefix"`
	OriginAS      uint32         `json:"origin_as"`
	Events        int            `json:"events"`
	FirstStart    time.Time      `json:"first_start"`
	LastEnd       time.Time      `json:"last_end"`
	DroppedPkts   int64          `json:"dropped_pkts"`
	ForwardedPkts int64          `json:"forwarded_pkts"`
	DropRatePkts  float64        `json:"drop_rate_pkts"`
	Classes       map[string]int `json:"classes"`
}

// VictimsView is /api/victims: the per-victim breakdown plus the Table 4
// host-population types.
type VictimsView struct {
	TakenAt      time.Time          `json:"taken_at"`
	Count        int                `json:"count"`
	Victims      []VictimView       `json:"victims"`
	HostProfiles int                `json:"host_profiles"`
	Clients      int                `json:"clients"`
	Servers      int                `json:"servers"`
	ClientTypes  map[string]float64 `json:"client_types"`
	ServerTypes  map[string]float64 `json:"server_types"`
}

func (s *Server) handleVictims(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	_, end := s.cfg.Source.Period()

	drops, classes := eventJoins(rep)

	byPrefix := make(map[string]*VictimView)
	for _, e := range rep.Events {
		key := e.Prefix.String()
		v := byPrefix[key]
		if v == nil {
			v = &VictimView{
				Prefix:     key,
				OriginAS:   e.OriginAS,
				FirstStart: e.Start().UTC(),
				LastEnd:    e.End(end).UTC(),
				Classes:    make(map[string]int),
			}
			byPrefix[key] = v
		}
		v.Events++
		if st := e.Start().UTC(); st.Before(v.FirstStart) {
			v.FirstStart = st
		}
		if en := e.End(end).UTC(); en.After(v.LastEnd) {
			v.LastEnd = en
		}
		v.Classes[classes[e.ID]]++
		if d := drops[e.ID]; d != nil {
			v.DroppedPkts += d.DroppedPkts
			v.ForwardedPkts += d.ForwardedPkts
		}
	}
	out := &VictimsView{
		TakenAt:     taken.UTC(),
		Count:       len(byPrefix),
		ClientTypes: make(map[string]float64),
		ServerTypes: make(map[string]float64),
	}
	for _, v := range byPrefix {
		if t := v.DroppedPkts + v.ForwardedPkts; t > 0 {
			v.DropRatePkts = float64(v.DroppedPkts) / float64(t)
		}
		out.Victims = append(out.Victims, *v)
	}
	sort.Slice(out.Victims, func(i, j int) bool {
		vi, vj := &out.Victims[i], &out.Victims[j]
		if vi.DroppedPkts != vj.DroppedPkts {
			return vi.DroppedPkts > vj.DroppedPkts
		}
		return vi.Prefix < vj.Prefix
	})
	out.HostProfiles = len(rep.Fig17)
	out.Clients = rep.Table4.Clients
	out.Servers = rep.Table4.Servers
	for typ, share := range rep.Table4.ClientTypes {
		out.ClientTypes[string(typ)] = share
	}
	for typ, share := range rep.Table4.ServerTypes {
		out.ServerTypes[string(typ)] = share
	}
	return out, nil
}

// MitigationCounterView is one dropped/forwarded traffic tally.
type MitigationCounterView struct {
	DroppedPkts    int64   `json:"dropped_pkts"`
	ForwardedPkts  int64   `json:"forwarded_pkts"`
	DroppedBytes   int64   `json:"dropped_bytes"`
	ForwardedBytes int64   `json:"forwarded_bytes"`
	DropRatePkts   float64 `json:"drop_rate_pkts"`
}

func mitCounterView(c *rtbh.MitigationCounter) MitigationCounterView {
	return MitigationCounterView{
		DroppedPkts:    c.DroppedPkts,
		ForwardedPkts:  c.ForwardedPkts,
		DroppedBytes:   c.DroppedBytes,
		ForwardedBytes: c.ForwardedBytes,
		DropRatePkts:   c.DropRatePkts(),
	}
}

// MitigationRowView is one Table 5 row: one mitigation type's aggregate
// outcome on attack and legitimate traffic.
type MitigationRowView struct {
	Type     string                `json:"type"`
	Prefixes int                   `json:"prefixes"`
	Attack   MitigationCounterView `json:"attack"`
	Legit    MitigationCounterView `json:"legit"`
}

// MitigationPrefixView is one victim prefix's per-type detail.
type MitigationPrefixView struct {
	Prefix         string                `json:"prefix"`
	RTBHAttack     MitigationCounterView `json:"rtbh_attack"`
	RTBHLegit      MitigationCounterView `json:"rtbh_legit"`
	FlowSpecAttack MitigationCounterView `json:"flowspec_attack"`
	FlowSpecLegit  MitigationCounterView `json:"flowspec_legit"`
}

// MitigationView is /api/mitigation: the reproduced Table 5 — RTBH vs
// FlowSpec, measured on the mitigated traffic.
type MitigationView struct {
	TakenAt  time.Time              `json:"taken_at"`
	Measured bool                   `json:"measured"`
	Rows     []MitigationRowView    `json:"rows"`
	Prefixes []MitigationPrefixView `json:"prefixes"`
}

func (s *Server) handleMitigation(_ url.Values, rep *rtbh.Report, taken time.Time) (any, *httpError) {
	out := &MitigationView{TakenAt: taken.UTC()}
	t5 := rep.Table5
	if t5 == nil {
		return out, nil
	}
	out.Measured = t5.Measured()
	for i := range t5.Rows {
		row := &t5.Rows[i]
		out.Rows = append(out.Rows, MitigationRowView{
			Type:     row.Phase.String(),
			Prefixes: row.Prefixes,
			Attack:   mitCounterView(&row.Attack),
			Legit:    mitCounterView(&row.Legit),
		})
	}
	for i := range t5.ByPrefix {
		ps := &t5.ByPrefix[i]
		out.Prefixes = append(out.Prefixes, MitigationPrefixView{
			Prefix:         ps.Prefix.String(),
			RTBHAttack:     mitCounterView(&ps.Attack[mitigation.PhaseRTBH]),
			RTBHLegit:      mitCounterView(&ps.Legit[mitigation.PhaseRTBH]),
			FlowSpecAttack: mitCounterView(&ps.Attack[mitigation.PhaseFlowSpec]),
			FlowSpecLegit:  mitCounterView(&ps.Legit[mitigation.PhaseFlowSpec]),
		})
	}
	return out, nil
}

// DetectionView is one closed-loop detection in /api/detections: the
// victim, the triggering window's estimated rate and attack vectors,
// and the mitigation lifecycle stamps (zero-valued stamps are omitted —
// a missing withdrawn_at means the blackhole is still up).
type DetectionView struct {
	ID         int             `json:"id"`
	Prefix     string          `json:"prefix"`
	DetectedAt time.Time       `json:"detected_at"`
	RatePPS    float64         `json:"rate_pps"`
	Vectors    []detect.Vector `json:"vectors,omitempty"`
	// AnnouncedAt is when the RTBH announcement entered the route server.
	AnnouncedAt *time.Time `json:"announced_at,omitempty"`
	// FirstDropAt is the first fabric drop at or after the announcement.
	FirstDropAt *time.Time `json:"first_drop_at,omitempty"`
	WithdrawnAt *time.Time `json:"withdrawn_at,omitempty"`
	Active      bool       `json:"active"`
}

// DetectionsView is /api/detections: the closed-loop detector's
// configuration, ingest counters and detection log.
type DetectionsView struct {
	ThresholdPPS float64         `json:"threshold_pps"`
	WindowS      float64         `json:"window_s"`
	CooldownS    float64         `json:"cooldown_s"`
	Records      int64           `json:"records"`
	Tracked      int             `json:"tracked_victims"`
	Active       int             `json:"active"`
	Detections   []DetectionView `json:"detections"`
}

func (s *Server) handleDetections(url.Values, *rtbh.Report, time.Time) (any, *httpError) {
	if s.cfg.Detections == nil {
		return nil, notFound("no detector: this run does not mitigate")
	}
	st := s.cfg.Detections()
	out := &DetectionsView{
		ThresholdPPS: st.ThresholdPPS,
		WindowS:      st.Window.Seconds(),
		CooldownS:    st.Cooldown.Seconds(),
		Records:      st.Records,
		Tracked:      st.Tracked,
		Active:       st.Active,
		Detections:   make([]DetectionView, 0, len(st.Detections)),
	}
	opt := func(t time.Time) *time.Time {
		if t.IsZero() {
			return nil
		}
		return &t
	}
	for i := range st.Detections {
		d := &st.Detections[i]
		out.Detections = append(out.Detections, DetectionView{
			ID:          d.ID,
			Prefix:      bgp.HostPrefix(d.Victim).String(),
			DetectedAt:  d.DetectedAt,
			RatePPS:     d.RatePPS,
			Vectors:     d.Vectors,
			AnnouncedAt: opt(d.AnnouncedAt),
			FirstDropAt: opt(d.FirstDropAt),
			WithdrawnAt: opt(d.WithdrawnAt),
			Active:      d.Active(),
		})
	}
	return out, nil
}

// HistoryEntryView is one retained snapshot's summary, with the record
// delta against the previous retained entry.
type HistoryEntryView struct {
	At                time.Time `json:"at"`
	TotalRecords      int64     `json:"total_records"`
	AttributedRecords int64     `json:"attributed_records"`
	DroppedRecords    int64     `json:"dropped_records"`
	Events            int       `json:"events"`
	DeltaRecords      int64     `json:"delta_records"`
	DeltaEvents       int       `json:"delta_events"`
}

// HistoryView is /api/history: the rolling time series (?since= trims
// the left edge).
type HistoryView struct {
	IntervalMS int64              `json:"interval_ms"`
	Depth      int                `json:"depth"`
	Entries    []HistoryEntryView `json:"entries"`
}

func (s *Server) handleHistory(q url.Values, _ *rtbh.Report, _ time.Time) (any, *httpError) {
	entries := s.ring.all()
	out := &HistoryView{
		IntervalMS: s.cfg.HistoryInterval.Milliseconds(),
		Depth:      s.cfg.HistoryDepth,
	}
	since, herr := timeParam(q, "since")
	if herr != nil {
		return nil, herr
	}
	var prev *rtbh.Report
	for _, e := range entries {
		if !e.at.Before(since) {
			ev := HistoryEntryView{
				At:                e.at.UTC(),
				TotalRecords:      e.rep.TotalRecords,
				AttributedRecords: e.rep.AttributedRecords,
				DroppedRecords:    e.rep.DroppedRecords,
				Events:            len(e.rep.Events),
			}
			if prev != nil {
				ev.DeltaRecords = e.rep.TotalRecords - prev.TotalRecords
				ev.DeltaEvents = len(e.rep.Events) - len(prev.Events)
			}
			out.Entries = append(out.Entries, ev)
		}
		prev = e.rep
	}
	return out, nil
}
