// Command rtbh-live runs the simulation in live streaming mode: every
// control update crosses a real BGP-over-TCP session to the route
// server, every sampled flow record is exported as IPFIX over UDP to a
// collector, and an online analyzer accumulates both streams
// incrementally. At the end the same dataset files as rtbh-sim are on
// disk (byte-identical for the same configuration) and the final report
// — computed online, without re-reading the archives — is printed.
// One driver (rtbh.LiveRun) runs one exchange or, with -ixps, several.
//
// Usage:
//
//	rtbh-live -out DIR [-scale test|bench|full|MULTIPLIER] [-seed N] [-days N]
//	          [-traffic-scale X]
//	          [-snapshot-every 30s] [-report=false] [-metrics PATH]
//	          [-pprof ADDR] [-chaos-profile NAME] [-chaos-seed N]
//	          [-ixps N] [-snapshot-chaos-profile NAME]
//	          [-serve ADDR] [-serve-max-age 5s] [-serve-history 5m]
//	          [-serve-history-depth 288]
//	          [-detect] [-detect-threshold PPS] [-detect-window D]
//	          [-detect-cooldown D]
//
// With -detect, a streaming DRDoS detector rides the collected flow
// stream: when a victim's estimated packet rate crosses
// -detect-threshold over a -detect-window, the detector originates an
// RTBH /32 for the victim through the route server as its own
// mitigation peer, and withdraws it after -detect-cooldown of quiet
// (0 keeps the default window and cooldown).
// The closed-loop detections (with per-attack announce and first-drop
// stamps) are scored against the scenario's ground truth after the run
// and exposed at /api/detections while it streams. Detection is
// single-exchange only: -detect with -ixps > 1 is rejected.
//
// With -serve, a looking-glass HTTP server (internal/serve) exposes the
// online analyzer's state as JSON while the run streams: /api/health,
// /api/summary, /api/events, /api/active, /api/collateral,
// /api/usecases, /api/victims, /api/mitigation, /api/detections,
// /api/history. Requests are served from a TTL snapshot cache
// (-serve-max-age, per-request ?maxAge= override; 0 takes a fresh
// snapshot per query) and a rolling history ring (-serve-history
// cadence, -serve-history-depth entries; 0 keeps either default) so
// queries never block ingest. Serving is single-exchange
// only: -serve with -ixps > 1 is rejected.
//
// With -ixps N (N > 1) the run federates across N exchanges: each has
// its own route server, fabric, BGP sessions and IPFIX export, writes a
// standalone dataset into OUT/ixp<i>, and accumulates its own online
// analyzer. At the end the per-exchange snapshots cross the federation
// TCP transport — impaired by -snapshot-chaos-profile when set, which
// is rejected without -ixps — and the merged federated report is
// printed.
//
// With -chaos-profile, a seeded fault-injection plan (internal/faultnet)
// impairs the live transports — connection kills, handshake resets and
// write stalls on the BGP sessions; drops, duplicates, reorders, delays
// and partitions on the IPFIX export — while the run still drains to a
// fully reconciled dataset. The same -chaos-seed injects a byte-identical
// fault schedule on every run.
//
// SIGINT/SIGTERM interrupt the run gracefully: dispatch stops, the
// in-flight streams drain, the archives hold the delivered prefix of
// the run, and the report covers exactly that prefix. With
// -snapshot-every, a partial analysis snapshot is printed periodically
// while the run is streaming — one line per exchange, prefixed ixp<i>:
// when there are several.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	rtbh "repro"
	"repro/internal/cliutil"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/textreport"
)

var fail, usageFail = cliutil.Exits("rtbh-live")

func main() {
	out := flag.String("out", "dataset", "output directory for the dataset files")
	world := cliutil.RegisterWorldFlags(flag.CommandLine)
	snapEvery := flag.Duration("snapshot-every", 0, "print a partial analysis snapshot at this interval (0 disables)")
	report := flag.Bool("report", true, "print the online analyzer's final report")
	workers := flag.Int("workers", 0, "how a report's replay of the unsealed flow tail and its compose are scheduled: "+cliutil.WorkersUsage)
	metricsOut := flag.String("metrics", "", cliutil.MetricsUsage)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	chaosProfile := flag.String("chaos-profile", "",
		fmt.Sprintf("inject transport faults from this profile (%s; empty disables)", strings.Join(rtbh.ChaosProfiles(), ", ")))
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for the fault-injection schedule (same seed, same faults)")
	snapChaos := flag.String("snapshot-chaos-profile", "",
		"with -ixps > 1, impair the snapshot transport with this fault profile (empty disables)")
	serveAddr := flag.String("serve", "", "serve the looking-glass JSON API on this address while the run streams (e.g. :8080)")
	serveMaxAge := flag.Duration("serve-max-age", serve.DefaultMaxAge,
		"default snapshot TTL for looking-glass queries (per-request ?maxAge= overrides; 0 takes a fresh snapshot per query)")
	serveHistory := flag.Duration("serve-history", serve.DefaultHistoryInterval,
		"looking-glass history capture cadence (0 keeps the default)")
	serveHistoryDepth := flag.Int("serve-history-depth", serve.DefaultHistoryDepth,
		"how many periodic snapshots the looking-glass history ring retains (0 keeps the default)")
	detectOn := flag.Bool("detect", false, "run the closed-loop DRDoS detector: originate RTBH for detected victims through the route server")
	detectThreshold := flag.Float64("detect-threshold", 0,
		"estimated packet rate (pps) over the detection window that fires a detection (0 derives detect.DefaultThreshold x the traffic scale)")
	detectWindow := flag.Duration("detect-window", detect.DefaultWindow,
		"sliding window the detector rates victims over (0 keeps the default)")
	detectCooldown := flag.Duration("detect-cooldown", detect.DefaultCooldown,
		"quiet time after the last hot window before the blackhole is withdrawn (0 keeps the default)")
	flag.Parse()

	cfg, err := world.Config()
	for _, err := range []error{
		err,
		cliutil.CheckWorkers(*workers),
		cliutil.CheckLiveModes(world.IXPs, *serveAddr != "", *snapChaos != ""),
	} {
		if err != nil {
			usageFail(err)
		}
	}
	// The default 0 disables periodic snapshots; only an explicitly set
	// cadence must be a positive duration. Tuning flags for a disabled
	// detector are a mistake worth stopping on too.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "snapshot-every":
			if err := cliutil.CheckSnapshotEvery(*snapEvery); err != nil {
				usageFail(err)
			}
		case "detect-threshold", "detect-window", "detect-cooldown":
			if !*detectOn {
				usageFail(fmt.Errorf("-%s is set but the detector is off; add -detect", f.Name))
			}
		}
	})
	if *serveAddr != "" {
		if err := cliutil.CheckServeAddr(*serveAddr); err != nil {
			usageFail(err)
		}
	}
	reg := rtbh.NewMetricsRegistry()
	if *pprofAddr != "" {
		if err := obs.StartDebugServer(*pprofAddr, reg); err != nil {
			fail(err)
		}
	}

	lr, err := rtbh.NewLiveRun(cfg, *out, reg)
	if err != nil {
		fail(err)
	}
	if *chaosProfile != "" {
		if err := lr.EnableChaos(*chaosSeed, *chaosProfile); err != nil {
			usageFail(err)
		}
	}
	if *snapChaos != "" {
		if err := lr.EnableSnapshotChaos(*chaosSeed, *snapChaos); err != nil {
			usageFail(err)
		}
	}
	if *detectOn {
		err := lr.EnableDetector(detect.Config{
			Threshold: *detectThreshold,
			Window:    *detectWindow,
			Cooldown:  *detectCooldown,
		})
		if err != nil {
			usageFail(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := rtbh.DefaultOptions()
	opts.Workers = *workers

	if *serveAddr != "" {
		scfg := serve.Config{
			Source:          lr.Analyzer(),
			Options:         opts,
			MaxAge:          *serveMaxAge,
			HistoryInterval: *serveHistory,
			HistoryDepth:    *serveHistoryDepth,
			Info: map[string]string{
				"scale":         world.Scale,
				"seed":          fmt.Sprintf("%d", cfg.Seed),
				"days":          fmt.Sprintf("%d", cfg.Days),
				"chaos_profile": *chaosProfile,
				"out":           *out,
			},
			Metrics: reg,
		}
		if det := lr.Detector(); det != nil {
			scfg.Detections = det.Status
		}
		srv, err := serve.New(scfg)
		if err != nil {
			usageFail(err)
		}
		bound, err := srv.Start(*serveAddr)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		go srv.RunHistory(ctx.Done())
		fmt.Fprintf(os.Stderr, "looking glass: http://%s/api/health\n", bound)
	}

	n := world.IXPs
	if *snapEvery > 0 {
		for i := 0; i < n; i++ {
			prefix := ""
			if n > 1 {
				prefix = fmt.Sprintf("ixp%d: ", i)
			}
			go snapshotLoop(ctx, prefix, lr.IXPAnalyzer(i), opts, *snapEvery)
		}
	}

	start := time.Now()
	sum, err := lr.Run(ctx)
	if err != nil {
		fail(err)
	}
	stop() // a second signal past this point kills the process normally

	verb := "completed"
	if lr.Interrupted() {
		verb = "interrupted; drained gracefully —"
	}
	took := time.Since(start).Round(time.Millisecond)
	if n == 1 {
		fmt.Printf("live run %s in %v, dataset written to %s\n", verb, took, *out)
	} else {
		fmt.Printf("federated live run %s in %v across %d exchanges, datasets written under %s\n", verb, took, n, *out)
	}
	cliutil.PrintRunSummary(os.Stdout, cfg, sum, true)
	if *chaosProfile != "" {
		fmt.Printf("chaos: profile %s, seed %d — injected faults reconciled (faultnet.* in the metrics snapshot)\n",
			*chaosProfile, *chaosSeed)
	}
	if *detectOn {
		st := lr.Detector().Status()
		fmt.Printf("detector: %d detections, %d still blackholed, %d flow records scored\n",
			len(st.Detections), st.Active, st.Records)
		fmt.Print(lr.EvaluateDetections(*detectWindow).Render())
	}

	if *report {
		w := bufio.NewWriter(os.Stdout)
		if n == 1 {
			rep, err := lr.Analyzer().Final(opts)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(w, "\nonline analyzer final report (%d events):\n\n", len(rep.Events))
			textreport.RenderAll(w, rep)
		} else {
			fr, err := lr.Report(opts)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w)
			textreport.RenderFederation(w, fr)
		}
		w.Flush()
	}

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fail(err)
		}
	}
}

// snapshotLoop periodically prints a one-line partial analysis snapshot
// of one exchange while the run is streaming.
func snapshotLoop(ctx context.Context, prefix string, a *rtbh.OnlineAnalyzer, opts rtbh.Options, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		updates, flows := a.Counts()
		rep, err := a.Snapshot(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtbh-live: %ssnapshot: %v\n", prefix, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%ssnapshot: %d control updates, %d flow records -> %d events, %d attributed records\n",
			prefix, updates, flows, len(rep.Events), rep.AttributedRecords)
	}
}
