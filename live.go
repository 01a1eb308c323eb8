package rtbh

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/detect"
	"repro/internal/fabric"
	"repro/internal/faultnet"
	"repro/internal/ipfix"
	"repro/internal/live"
	"repro/internal/mrt"
	"repro/internal/routeserver"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// LiveRun is one live-mode run of a planned world: instead of feeding
// the route server and the archive writers in-process the way Simulate
// does, every control update crosses a real BGP-over-TCP session and
// every sampled flow record is exported as RFC 7011 IPFIX over UDP to a
// collector, which writes the archives and feeds an OnlineAnalyzer.
// The archived dataset is byte-identical to Simulate's for the same
// Config (see DESIGN.md, "Live mode").
//
// Construct with NewLiveRun, inspect progress through Analyzer, then
// Run once. Cancelling Run's context interrupts the run gracefully: the
// in-flight streams drain, the archive holds the delivered prefix of
// the run, and the analyzer reports over exactly that prefix.
type LiveRun struct {
	cfg      Config
	dir      string
	reg      *MetricsRegistry
	w        *scenario.World
	analyzer *OnlineAnalyzer
	lm       *live.Metrics
	plan     *faultnet.Plan
	det      *detect.Detector

	ran         bool
	interrupted bool
}

// ChaosProfiles lists the fault-injection profile names accepted by
// EnableChaos and the -chaos-profile flag.
func ChaosProfiles() []string { return faultnet.ProfileNames() }

// NewLiveRun plans the world described by cfg and prepares the online
// analyzer. Nothing is written and no sockets open until Run. When reg
// is non-nil the live transports register their metrics ("live.*") on
// it immediately, and the route server and fabric add theirs
// ("routeserver.*", "fabric.*") during Run.
func NewLiveRun(cfg Config, dir string, reg *MetricsRegistry) (*LiveRun, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return nil, err
	}
	lm := live.NewMetrics()
	analyzer := NewOnlineAnalyzer(analysisMeta(w))
	if reg != nil {
		lm.Register(reg)
		analyzer.RegisterMetrics(reg)
	}
	return &LiveRun{
		cfg:      cfg,
		dir:      dir,
		reg:      reg,
		w:        w,
		analyzer: analyzer,
		lm:       lm,
	}, nil
}

// Analyzer returns the run's online analyzer. Snapshot it at any time —
// before, during or after Run. The looking-glass serving layer
// (internal/serve, rtbh-live -serve) mounts its HTTP API over exactly
// this analyzer: every endpoint is a cached view of its Snapshot.
func (lr *LiveRun) Analyzer() *OnlineAnalyzer { return lr.analyzer }

// Config returns the configuration the run was planned with; the
// serving layer's health endpoint reports it so clients can tell which
// world they are looking at.
func (lr *LiveRun) Config() Config { return lr.cfg }

// EnableChaos arms a seeded fault-injection plan for the run: the given
// profile's impairments are applied to the BGP/TCP sessions and the
// IPFIX/UDP export path, scheduled deterministically from seed (see
// internal/faultnet). Call before Run. The plan's injection counters
// register on the run's metrics registry under "faultnet.*", so a
// snapshot reconciles injected faults against observed recovery.
func (lr *LiveRun) EnableChaos(seed uint64, profile string) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	p, err := faultnet.ParseProfile(profile)
	if err != nil {
		return err
	}
	lr.plan = faultnet.NewPlan(seed, p)
	if lr.reg != nil {
		lr.plan.M.Register(lr.reg)
	}
	return nil
}

// EnableDetector arms the closed-loop DRDoS detector for the run: every
// collected flow record also feeds a streaming rate/vector sketch, and
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
// the mitigation peer's announcements.
func (lr *LiveRun) EnableDetector(cfg detect.Config) error {
	if lr.ran {
		return fmt.Errorf("rtbh: live run already executed")
	}
	cfg.SamplingRate = lr.w.Cfg.SamplingRate
	cfg.BlackholeMAC = fabric.BlackholeMAC
	if cfg.TrafficScale == 0 {
		cfg.TrafficScale = lr.w.Cfg.Scale()
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
	for _, e := range lr.w.Events {
		if e.Attack == nil {
			continue
		}
		// Victim address, mirroring the scenario driver's choice: the
		// event host's address, or the first host address inside a
		// squatting prefix.
		victim := e.Prefix.Addr + 1
		if e.Host >= 0 {
			victim = lr.w.Hosts[e.Host].IP
		}
		out = append(out, detect.TruthAttack{
			EventID: e.ID,
			Victim:  victim,
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

// ChaosJournal renders every fault the plan injected, grouped by stream:
// byte-identical across runs with the same seed, profile and Config. It
// is empty until Run and when chaos is not enabled.
func (lr *LiveRun) ChaosJournal() string {
	if lr.plan == nil {
		return ""
	}
	return lr.plan.Journal()
}

// Interrupted reports whether Run ended early because its context was
// cancelled (the dataset then covers the delivered prefix of the run).
func (lr *LiveRun) Interrupted() bool { return lr.interrupted }

// Run drives the planned world through the live transports and writes
// the same dataset files as Simulate into the run's directory. It
// returns after the streams have drained, the shutdown invariants have
// been reconciled (every sent update delivered; every exported record
// collected or accounted as dropped) and the archives are flushed.
//
// Cancelling ctx stops dispatching, drains what is in flight, and
// returns normally with Interrupted() set; any other failure is an
// error.
func (lr *LiveRun) Run(ctx context.Context) (*SimulationSummary, error) {
	if lr.ran {
		return nil, fmt.Errorf("rtbh: live run already executed")
	}
	lr.ran = true
	w := lr.w

	if err := os.MkdirAll(lr.dir, 0o755); err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	mrtFile, err := os.Create(filepath.Join(lr.dir, FileUpdates))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	defer mrtFile.Close()
	mrtW := mrt.NewWriter(mrtFile)

	flowFile, err := os.Create(filepath.Join(lr.dir, FileFlows))
	if err != nil {
		return nil, fmt.Errorf("rtbh: %w", err)
	}
	defer flowFile.Close()
	flowW := ipfix.NewWriter(flowFile, 1)

	// rs and fb are assigned inside Drive's build callback, strictly
	// before the runner carries any traffic that reaches these closures.
	var (
		rs *routeserver.Server
		fb *fabric.Fabric
	)

	// rsMu serializes route-server access: deliveries arrive on the
	// sequencer's delivery goroutine, peer flushes on per-session
	// listener goroutines, and the route server itself is not
	// concurrency-safe.
	var rsMu sync.Mutex

	// Delivered updates (totally ordered by the sequencer) go to the
	// route server — whose collector hook archives the re-encoded wire
	// message, byte-identical to the batch path — and to the analyzer.
	deliver := func(ts time.Time, peer uint32, upd *bgp.Update) error {
		rsMu.Lock()
		_, err := rs.Process(ts, peer, upd)
		rsMu.Unlock()
		if err != nil {
			return err
		}
		lr.analyzer.ObserveUpdate(ts, peer, upd)
		return nil
	}
	// Ungraceful session loss flushes the peer's routes, exactly like a
	// production route server would. The orderly Cease at shutdown does
	// not take this path.
	onPeerFlush := func(peer uint32) {
		rsMu.Lock()
		rs.PeerDown(peer)
		rsMu.Unlock()
	}
	// Collected flow records (in export order) feed the archive and the
	// analyzer.
	flowSink := func(b *ipfix.RecordBatch) error {
		if err := flowW.WriteBatch(b); err != nil {
			return err
		}
		lr.analyzer.ObserveFlowBatch(b)
		if lr.det != nil {
			lr.det.ObserveFlowBatch(b)
		}
		return nil
	}

	rcfg := live.RunnerConfig{Fault: lr.plan}
	if lr.plan != nil {
		// Chaos tuning: reconnect fast enough that injected kills heal
		// well inside the restart tolerance, with a hold time that
		// injected stalls (≤2ms) can never expire.
		rcfg.Session = live.SessionConfig{
			HoldTime:     30 * time.Second,
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		}
	}
	runner, err := live.NewRunner(ctx, rcfg, lr.lm, deliver, onPeerFlush, flowSink)
	if err != nil {
		return nil, err
	}
	defer runner.Shutdown()

	var flowCount int64
	st, driveErr := scenario.Drive(w, func(fabricRNG *stats.RNG) (scenario.Executor, error) {
		if rs, err = scenario.NewRouteServer(w); err != nil {
			return nil, err
		}
		if lr.det != nil {
			// The detector peers with the route server like any member:
			// its announcements cross a real BGP session and are archived
			// by the collector hook exactly like operator-originated RTBH.
			if err := rs.AddPeer(routeserver.Peer{
				ASN:    detect.PeerASN,
				IP:     w.RSIP + 0xFFFD,
				Policy: routeserver.DefaultPolicy(),
			}); err != nil {
				return nil, err
			}
		}
		rs.SetCollector(func(ts time.Time, peerAS uint32, peerIP uint32, msg []byte) {
			rec := mrt.Record{
				Timestamp: ts, PeerAS: peerAS, LocalAS: uint32(w.RSASN),
				PeerIP: peerIP, LocalIP: w.RSIP, Message: msg,
			}
			// Write errors surface at Flush below, as in Simulate.
			_ = mrtW.WriteRecord(&rec)
		})
		fb, err = fabric.New(rs, w.Cfg.SamplingRate, fabricRNG, func(b *ipfix.RecordBatch) error {
			flowCount += int64(b.Len())
			return runner.ExportFlowBatch(b)
		})
		if err != nil {
			return nil, err
		}
		fb.ClockOffset = w.Cfg.ClockOffset
		if lr.reg != nil {
			rs.RegisterMetrics(lr.reg)
			fb.RegisterMetrics(lr.reg)
		}
		runner.SetRouteServerASN(uint32(w.RSASN))
		return liveExecutor{r: runner, fb: fb, det: lr.det}, nil
	})
	if driveErr != nil {
		if !errors.Is(driveErr, context.Canceled) && !errors.Is(driveErr, context.DeadlineExceeded) {
			return nil, driveErr
		}
		lr.interrupted = true
	}
	if st == nil { // Drive returns no stats when build itself failed
		st = &scenario.DriveStats{}
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
		if err := runner.Drain(); err != nil {
			return nil, err
		}
		ex := liveExecutor{r: runner, fb: fb, det: lr.det}
		if err := ex.dispatchDetections(w.Cfg.End()); err != nil {
			return nil, err
		}
		if err := runner.Barrier(); err != nil {
			return nil, err
		}
	}

	// Drain what is in flight even on an interrupted run, so the archive
	// and the analyzer agree on the delivered prefix.
	if err := runner.Drain(); err != nil {
		return nil, err
	}
	if err := runner.Reconcile(); err != nil {
		return nil, err
	}
	if err := runner.Shutdown(); err != nil {
		return nil, err
	}

	if err := mrtW.Flush(); err != nil {
		return nil, fmt.Errorf("rtbh: flushing MRT: %w", err)
	}
	if err := flowW.Flush(); err != nil {
		return nil, fmt.Errorf("rtbh: flushing IPFIX: %w", err)
	}
	if err := writeJSON(filepath.Join(lr.dir, FileMetadata), metaOf(w)); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(lr.dir, FileIP2AS), w.IP2AS.WriteJSON); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(lr.dir, FilePDB), w.PDB.WriteJSON); err != nil {
		return nil, err
	}
	if err := writeFile(filepath.Join(lr.dir, FileTruth), scenario.Truth(w).WriteJSON); err != nil {
		return nil, err
	}

	fst := fb.Stats()
	return &SimulationSummary{
		Events:         len(w.Events),
		Hosts:          len(w.Hosts),
		Members:        len(w.Members),
		ControlMsgs:    rs.MessagesProcessed(),
		Announcements:  st.Announcements,
		Withdrawals:    st.Withdrawals,
		FlowRecords:    flowCount,
		PacketsIn:      fst.PacketsIn,
		PacketsDropped: fst.PacketsDropped,
	}, nil
}

// liveExecutor dispatches the scenario driver's action stream onto the
// live transports. Control is asynchronous (the update crosses a real
// TCP session); the barrier before every Inject restores the batch
// path's "control completes before the next batch" invariant, so the
// fabric always sees the forwarding state the driver intended.
type liveExecutor struct {
	r   *live.Runner
	fb  *fabric.Fabric
	det *detect.Detector
}

func (e liveExecutor) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	if err := e.dispatchDetections(ts); err != nil {
		return err
	}
	return e.r.SendUpdate(ts, peerAS, upd)
}

func (e liveExecutor) Inject(b *fabric.Batch) error {
	if err := e.dispatchDetections(b.Time); err != nil {
		return err
	}
	if err := e.r.Barrier(); err != nil {
		return err
	}
	return e.fb.Inject(b)
}

// dispatchDetections advances the detector's mitigation clock to now and
// sends every action it queued as a BGP UPDATE from the mitigation
// peer. Announcements carry the blackhole community and next hop, so
// the route server accepts and archives them exactly like
// operator-originated RTBH; the fabric then drops the victim's traffic
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
				Communities: bgp.Communities{bgp.Blackhole},
			}
			upd.NLRI = []bgp.Prefix{p}
		} else {
			upd.Withdrawn = []bgp.Prefix{p}
		}
		if err := e.r.SendUpdate(a.Time, detect.PeerASN, upd); err != nil {
			return err
		}
	}
	return nil
}

// analysisMeta builds the analyzer-side metadata directly from the
// planned world — the same values OpenDataset reconstructs from the
// dataset's metadata.json and side tables.
func analysisMeta(w *scenario.World) *analysis.Metadata {
	meta := &analysis.Metadata{
		SamplingRate: w.Cfg.SamplingRate,
		TrafficScale: w.Cfg.Scale(),
		Start:        w.Cfg.Start,
		End:          w.Cfg.End(),
		MemberByMAC:  make(map[ipfix.MAC]uint32, len(w.Members)),
		BlackholeMAC: fabric.BlackholeMAC,
		InternalMACs: map[ipfix.MAC]bool{fabric.InternalMAC: true},
		IP2AS:        w.IP2AS,
		PDB:          w.PDB,
	}
	for _, m := range w.Members {
		meta.MemberByMAC[fabric.MemberMAC(m.ASN)] = m.ASN
	}
	return meta
}
