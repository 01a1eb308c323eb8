package rtbh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/faultnet"
	"repro/internal/federation"
	"repro/internal/ipfix"
	"repro/internal/live"
	"repro/internal/routeserver"
	"repro/internal/scenario"
)

// LiveRun is one live-mode run of a planned world: instead of feeding
// the route server and the archive writers in-process the way Simulate
// does, every control update crosses a real BGP-over-TCP session and
// every sampled flow record is exported as RFC 7011 IPFIX over UDP to a
// collector, which writes the archives and feeds an OnlineAnalyzer.
// The world runs across cfg.IXPs exchanges, each with its own route
// server, fabric, transports, analyzer and dataset directory: dir itself
// for a single exchange, dir/ixp<i> for more. The archived datasets are
// byte-identical to Simulate's for the same Config (see DESIGN.md,
// "Live mode").
//
// Construct with NewLiveRun, inspect progress through Analyzer, then
// Run once. Cancelling Run's context interrupts the run gracefully: the
// in-flight streams drain, the archives hold the delivered prefix of
// the run, and the analyzers report over exactly that prefix.
type LiveRun struct {
	reg      *MetricsRegistry
	fed      *scenario.Federation
	xs       []*liveExchange
	snapPlan *faultnet.Plan
	det      *detect.Detector

	ran         bool
	interrupted bool
}

// liveExchange is one exchange of a live run.
type liveExchange struct {
	dir      string
	analyzer *OnlineAnalyzer
	lm       *live.Metrics
	plan     *faultnet.Plan

	// Run state. ex is assigned as RunFederated builds the exchanges,
	// strictly before the runner carries any traffic that reaches it.
	dw     *datasetWriter
	runner *live.Runner
	ex     *scenario.Exchange
	// rsMu serializes route-server access: deliveries arrive on the
	// sequencer's delivery goroutine, peer flushes on per-session
	// listener goroutines or restart timers, the fabric reads it on the
	// driver's goroutine, and the route server itself is not
	// concurrency-safe.
	rsMu sync.Mutex
}

// ChaosProfiles lists the fault-injection profile names accepted by
// EnableChaos and the -chaos-profile flag.
func ChaosProfiles() []string { return faultnet.ProfileNames() }

// NewLiveRun plans the world described by cfg and its federation, and
// prepares one online analyzer per exchange. Nothing is written and no
// sockets open until Run. When reg is non-nil, exchange 0 registers its
// transport and analyzer metrics ("live.*", "online.*") on it
// immediately and its route-server and fabric metrics
// ("routeserver.*", "fabric.*") during Run — one exchange only, because
// the metric names are global.
func NewLiveRun(cfg Config, dir string, reg *MetricsRegistry) (*LiveRun, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	lr := &LiveRun{reg: reg, fed: scenario.PlanFederation(w)}
	meta := analysisMeta(w)
	for i, d := range exchangeDirs(dir, lr.fed.N) {
		x := &liveExchange{dir: d, analyzer: NewOnlineAnalyzer(meta), lm: live.NewMetrics()}
		if reg != nil && i == 0 {
			x.lm.Register(reg)
			x.analyzer.RegisterMetrics(reg)
		}
		lr.xs = append(lr.xs, x)
	}
	return lr, nil
}

// Analyzer returns the online analyzer of exchange 0 — the run's only
// one unless cfg.IXPs > 1. Snapshot it at any time — before, during or
// after Run. The looking-glass serving layer (internal/serve, rtbh-live
// -serve) mounts its HTTP API over exactly this analyzer: every
// endpoint is a cached view of its Snapshot.
func (lr *LiveRun) Analyzer() *OnlineAnalyzer { return lr.xs[0].analyzer }

// IXPAnalyzer returns exchange i's online analyzer.
func (lr *LiveRun) IXPAnalyzer(i int) *OnlineAnalyzer { return lr.xs[i].analyzer }

// EnableChaos arms seeded fault-injection plans for the run: the given
// profile's impairments are applied to the BGP/TCP sessions and the
// IPFIX/UDP export path, scheduled deterministically (see
// internal/faultnet). Exchange i draws its schedule from seed+i, so
// every exchange flaps independently but reproducibly. Call before Run.
// Exchange 0's injection counters register on the run's metrics
// registry under "faultnet.*", so a snapshot reconciles injected faults
// against observed recovery.
func (lr *LiveRun) EnableChaos(seed uint64, profile string) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	p, err := faultnet.ParseProfile(profile)
	if err != nil {
		return err
	}
	for i, x := range lr.xs {
		x.plan = faultnet.NewPlan(seed+uint64(i), p)
	}
	if lr.reg != nil {
		lr.xs[0].plan.M.Register(lr.reg)
	}
	return nil
}

// EnableSnapshotChaos arms a fault-injection plan on the snapshot
// transport alone: every federation.Send from Report dials through the
// profile's connection middleware, so snapshot frames are truncated and
// connections cut deterministically while the coordinator still
// converges through retransmits and Seq dedup. Call before Report.
func (lr *LiveRun) EnableSnapshotChaos(seed uint64, profile string) error {
	p, err := faultnet.ParseProfile(profile)
	if err != nil {
		return err
	}
	lr.snapPlan = faultnet.NewPlan(seed, p)
	return nil
}

// EnableDetector arms the closed-loop DRDoS detector for the run: every
// collected flow record also feeds the detector's per-victim tallies, and
// when a victim's estimated packet rate crosses cfg.Threshold the
// detector originates an RTBH announcement for the victim /32 through
// the route server as its own mitigation peer (AS detect.PeerASN),
// withdrawing it once the attack has been quiet for cfg.Cooldown. Call
// before Run. The run's sampling rate and blackhole MAC are filled in
// from the planned world; cfg.SamplingRate and cfg.BlackholeMAC are
// ignored. Detector metrics ("detect.*") register on the run's registry.
//
// The detector is strictly opt-in: without it the archived dataset is
// byte-identical to Simulate's, with it the archive additionally holds
// the mitigation peer's announcements. Where a victim seen at several
// exchanges would be announced is undecided (federation v2), so a
// multi-exchange run refuses the detector.
func (lr *LiveRun) EnableDetector(cfg detect.Config) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	if lr.fed.N > 1 {
		return fmt.Errorf("rtbh: the detector supports a single exchange, the run has %d", lr.fed.N)
	}
	cfg.SamplingRate = lr.fed.W.Cfg.SamplingRate
	cfg.BlackholeMAC = fabric.BlackholeMAC
	if cfg.TrafficScale == 0 {
		cfg.TrafficScale = lr.fed.W.Cfg.Scale()
	}
	d, err := detect.New(cfg)
	if err != nil {
		return err
	}
	lr.det = d
	if lr.reg != nil {
		d.RegisterMetrics(lr.reg)
	}
	return nil
}

// Detector returns the run's detector, nil unless EnableDetector was
// called. Its Status is safe to read at any time; the serving layer's
// /api/detections endpoint is a view of it.
func (lr *LiveRun) Detector() *detect.Detector { return lr.det }

// AttackTruth extracts the ground-truth DDoS attacks from the planned
// world in the detector evaluation's shape: victim address, real span
// and intensity per attack event.
func (lr *LiveRun) AttackTruth() []detect.TruthAttack {
	var out []detect.TruthAttack
	for _, e := range lr.fed.W.Events {
		if e.Attack == nil {
			continue
		}
		out = append(out, detect.TruthAttack{
			EventID: e.ID,
			Victim:  lr.fed.W.VictimAddr(e),
			Start:   e.Attack.Start,
			End:     e.Attack.End(),
			PPS:     e.Attack.PPS,
		})
	}
	return out
}

// EvaluateDetections scores the detector's log against the planned
// ground truth (see detect.Evaluate). It returns nil when the detector
// was never enabled.
func (lr *LiveRun) EvaluateDetections(slack time.Duration) *detect.Eval {
	if lr.det == nil {
		return nil
	}
	return detect.Evaluate(lr.det.Status().Detections, lr.AttackTruth(), slack)
}

// ChaosJournal renders every fault the plans injected, grouped by
// stream (and, with several exchanges, by exchange): byte-identical
// across runs with the same seed, profile and Config. It is empty until
// Run and when chaos is not enabled.
func (lr *LiveRun) ChaosJournal() string {
	var sb strings.Builder
	for i, x := range lr.xs {
		if x.plan == nil {
			return ""
		}
		j := x.plan.Journal()
		if j != "" && lr.fed.N > 1 {
			fmt.Fprintf(&sb, "=== ixp%d ===\n", i)
		}
		sb.WriteString(j)
	}
	return sb.String()
}

// Interrupted reports whether Run ended early because its context was
// cancelled (the datasets then cover the delivered prefix of the run).
func (lr *LiveRun) Interrupted() bool { return lr.interrupted }

// Run drives the planned world through every exchange's live transports
// and writes the same dataset files as Simulate into each exchange's
// directory. It returns after the streams have drained, the shutdown
// invariants have been reconciled (every sent update delivered; every
// exported record collected or accounted as dropped) and the archives
// are flushed.
//
// Cancelling ctx stops dispatching, drains what is in flight, and
// returns normally with Interrupted() set; any other failure is an
// error.
func (lr *LiveRun) Run(ctx context.Context) (*SimulationSummary, error) {
	if lr.ran {
		return nil, fmt.Errorf("rtbh: live run already executed")
	}
	lr.ran = true
	w, fed := lr.fed.W, lr.fed

	defer func() {
		for _, x := range lr.xs {
			x.abandon()
		}
	}()
	sinks := make([]scenario.Sinks, fed.N)
	for i, x := range lr.xs {
		var err error
		if sinks[i], err = x.start(ctx, w, lr.det); err != nil {
			return nil, err
		}
	}
	sinks[0].Metrics = lr.reg

	exs, st, driveErr := scenario.RunFederated(fed, sinks, func(i int, ex *scenario.Exchange) (scenario.Executor, error) {
		if lr.det != nil {
			// The detector peers with the route server like any member:
			// its announcements cross a real BGP session and are archived
			// by the collector hook exactly like operator-originated RTBH.
			if err := ex.RS.AddPeer(routeserver.Peer{
				ASN:    detect.PeerASN,
				IP:     w.RSIP + 0xFFFD,
				Policy: routeserver.DefaultPolicy(),
			}); err != nil {
				return nil, err
			}
		}
		x := lr.xs[i]
		x.ex = ex
		x.runner.SetRouteServerASN(uint32(w.RSASN))
		return liveExecutor{x: x, det: lr.det}, nil
	})
	if driveErr != nil {
		if !errors.Is(driveErr, context.Canceled) && !errors.Is(driveErr, context.DeadlineExceeded) {
			return nil, driveErr
		}
		lr.interrupted = true
	}

	// Close the mitigation loop: a final detector tick at the end of the
	// scenario clock dispatches any pending announcements and withdraws
	// blackholes whose cooldown has expired, so the archive records the
	// full announce/withdraw lifecycle. The flow stream is drained first:
	// the detector only sees a record once it crossed exporter, UDP and
	// collector, and a detection raised by the tail still in flight must
	// be pending when the tick fires. Skipped on interruption — the
	// runner refuses new updates once its context is cancelled.
	if lr.det != nil && !lr.interrupted {
		x := lr.xs[0]
		if err := x.runner.Drain(); err != nil {
			return nil, err
		}
		ex := liveExecutor{x: x, det: lr.det}
		if err := ex.dispatchDetections(w.Cfg.End()); err != nil {
			return nil, err
		}
		if err := x.runner.Barrier(); err != nil {
			return nil, err
		}
	}

	for i, x := range lr.xs {
		if err := x.stop(); err != nil {
			return nil, fmt.Errorf("rtbh: ixp%d: %w", i, err)
		}
	}
	return summarize(fed, exs, st), nil
}

// start opens the exchange's dataset writer and live transports and
// returns the sinks its route server and fabric feed: the collector hook
// archives straight into the dataset, sampled flow records leave through
// the IPFIX exporter.
func (x *liveExchange) start(ctx context.Context, w *scenario.World, det *detect.Detector) (scenario.Sinks, error) {
	var err error
	if x.dw, err = newDatasetWriter(x.dir, w); err != nil {
		return scenario.Sinks{}, err
	}
	archive := x.dw.sinks()

	// Delivered updates (totally ordered by the sequencer) go to the
	// route server — whose collector hook archives the re-encoded wire
	// message, byte-identical to the batch path — and to the analyzer.
	deliver := func(ts time.Time, peer uint32, upd *bgp.Update) error {
		x.rsMu.Lock()
		_, err := x.ex.RS.Process(ts, peer, upd)
		x.rsMu.Unlock()
		if err != nil {
			return err
		}
		x.analyzer.ObserveUpdate(ts, peer, upd)
		return nil
	}
	// Collected flow records (in export order) feed the archive, the
	// analyzer and the detector.
	flowSink := func(b *ipfix.RecordBatch) error {
		if err := archive.Flow(b); err != nil {
			return err
		}
		x.analyzer.ObserveFlowBatch(b)
		if det != nil {
			det.ObserveFlowBatch(b)
		}
		return nil
	}

	rcfg := live.RunnerConfig{Fault: x.plan}
	if x.plan != nil {
		// Chaos tuning: reconnect fast enough that injected kills heal
		// well inside the restart tolerance, with a hold time that
		// injected stalls (≤2ms) can never expire.
		rcfg.Session = live.SessionConfig{
			HoldTime:     30 * time.Second,
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		}
	}
	if x.runner, err = live.NewRunner(ctx, rcfg, x.lm, deliver, x.flushPeer, flowSink); err != nil {
		return scenario.Sinks{}, err
	}
	return scenario.Sinks{Control: archive.Control, Flow: x.runner.ExportFlowBatch}, nil
}

// flushPeer flushes the routes of a peer whose session was lost
// ungracefully, exactly like a production route server would. The
// orderly Cease at shutdown does not take this path.
func (x *liveExchange) flushPeer(peer uint32) {
	x.rsMu.Lock()
	x.ex.RS.PeerDown(peer)
	x.rsMu.Unlock()
}

// inject carries one traffic batch across the fabric, which reads the
// route server's forwarding state: a peer flush may run on a session or
// timer goroutine at the same time. The fabric's sink waits at most for
// collector credit, which no holder of rsMu needs.
func (x *liveExchange) inject(b *fabric.Batch) error {
	x.rsMu.Lock()
	defer x.rsMu.Unlock()
	return x.ex.FB.Inject(b)
}

// stop drains what is in flight — even on an interrupted run, so the
// archive and the analyzer agree on the delivered prefix — reconciles
// the shutdown invariants, and completes the dataset.
func (x *liveExchange) stop() error {
	if err := x.runner.Drain(); err != nil {
		return err
	}
	if err := x.runner.Reconcile(); err != nil {
		return err
	}
	if err := x.runner.Shutdown(); err != nil {
		return err
	}
	return x.dw.finish()
}

// abandon releases whatever start opened; after stop it is a no-op.
func (x *liveExchange) abandon() {
	if x.runner != nil {
		x.runner.Shutdown() //nolint:errcheck // best-effort cleanup
	}
	if x.dw != nil {
		x.dw.close()
	}
}

// Report federates the online analyzers: each exchange's state is
// reduced to a snapshot (OnlineAnalyzer.FederationState), shipped over
// the federation TCP transport to an in-process coordinator — through
// the snapshot-chaos middleware when armed — and merged, exactly as
// distributed instances would. The cross-IXP view re-streams the flow
// archives Run wrote. Call after Run; the result is identical to
// AnalyzeFederated over the same directories (see DESIGN.md,
// "Federation").
func (lr *LiveRun) Report(opts Options) (*FederatedReport, error) {
	if !lr.ran {
		return nil, fmt.Errorf("rtbh: live run has not executed")
	}
	coord := federation.NewCoordinator(analysisMeta(lr.fed.W), opts.Delta)
	srv, err := federation.Serve("127.0.0.1:0", coord)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	datasets := make([]*Dataset, lr.fed.N)
	for i, x := range lr.xs {
		snap, err := x.analyzer.FederationState(i, 1, lr.fed.ClockOffsets[i])
		if err != nil {
			return nil, err
		}
		var wrap func(c net.Conn) net.Conn
		attempts := 3
		if lr.snapPlan != nil {
			// Each exchange's snapshot stream draws its own deterministic
			// schedule; the reset-free progress guarantee bounds retries.
			wrap = lr.snapPlan.TCP(uint32(i)).Wrap
			attempts = 6
		}
		if err := federation.Send(srv.Addr(), snap, wrap, attempts); err != nil {
			return nil, err
		}
		if datasets[i], err = OpenDataset(x.dir); err != nil {
			return nil, err
		}
	}
	if got := coord.Snapshots(); got != lr.fed.N {
		return nil, fmt.Errorf("rtbh: coordinator holds %d snapshots, want %d", got, lr.fed.N)
	}
	merged, err := coord.Merge()
	if err != nil {
		return nil, err
	}
	return composeFederatedReport(merged, datasets, opts)
}

// liveExecutor dispatches the scenario driver's action stream onto the
// live transports. Control is asynchronous (the update crosses a real
// TCP session); the barrier before every Inject restores the batch
// path's "control completes before the next batch" invariant, so the
// fabric always sees the forwarding state the driver intended.
type liveExecutor struct {
	x   *liveExchange
	det *detect.Detector
}

func (e liveExecutor) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	if err := e.dispatchDetections(ts); err != nil {
		return err
	}
	return e.x.runner.SendUpdate(ts, peerAS, upd)
}

func (e liveExecutor) Inject(b *fabric.Batch) error {
	if err := e.dispatchDetections(b.Time); err != nil {
		return err
	}
	if err := e.x.runner.Barrier(); err != nil {
		return err
	}
	return e.x.inject(b)
}

// dispatchDetections advances the detector's mitigation clock to now and
// sends every action it queued as a BGP UPDATE from the mitigation
// peer. Announcements carry the blackhole community and next hop, so
// the route server accepts and archives them exactly like
// operator-originated RTBH, and NO_EXPORT beside it, as RFC 7999 asks of
// whoever originates a blackhole; the fabric then drops the victim's traffic
// from the next injected batch on (the barrier in Inject orders the
// announcement ahead of the traffic it protects against).
func (e liveExecutor) dispatchDetections(now time.Time) error {
	if e.det == nil {
		return nil
	}
	for _, a := range e.det.Tick(now) {
		upd := &bgp.Update{}
		p := bgp.HostPrefix(a.Victim)
		if a.Announce {
			upd.Attrs = bgp.PathAttrs{
				Origin:      bgp.OriginIGP,
				ASPath:      []uint32{detect.PeerASN},
				NextHop:     routeserver.BlackholeNextHop,
				Communities: bgp.Communities{bgp.Blackhole, bgp.NoExport},
			}
			upd.NLRI = []bgp.Prefix{p}
		} else {
			upd.Withdrawn = []bgp.Prefix{p}
		}
		if err := e.x.runner.SendUpdate(a.Time, detect.PeerASN, upd); err != nil {
			return err
		}
	}
	return nil
}

// analysisMeta builds the analyzer-side metadata directly from the
// planned world — the same values OpenDataset reconstructs from the
// dataset's metadata.json and side tables.
func analysisMeta(w *scenario.World) *analysis.Metadata {
	return newMetadata(metaOf(w), w.IP2AS, w.PDB)
}
