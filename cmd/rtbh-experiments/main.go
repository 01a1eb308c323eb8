// Command rtbh-experiments regenerates individual figures and tables of
// the paper. It either analyzes an existing dataset directory or, with
// -simulate, generates one on the fly.
//
// Usage:
//
//	rtbh-experiments -run fig6                 # one experiment
//	rtbh-experiments -run fig2,fig5,table3     # several
//	rtbh-experiments -run all -simulate bench  # everything, fresh world
//	rtbh-experiments -ixps 3 -simulate test    # federated world, merged report
//	rtbh-experiments -list                     # available experiments
//
// With -ixps N (N > 1) the world is federated across N exchanges: each
// exchange observes only its members' control messages and traffic, the
// per-exchange snapshots are merged through the federation coordinator,
// and the report adds the cross-exchange leakage view. An existing
// federated dataset is analyzed with -data DIR where DIR holds the
// ixp0..ixpN-1 subdirectories SimulateFederated writes.
//
// With -metrics, one JSON snapshot spanning the whole run — the simulated
// world's route-server and fabric counters (when -simulate) plus the
// analysis pipeline counters and stage timers — is written at the end
// ("-" for stderr).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	rtbh "repro"
	"repro/internal/cliutil"
	"repro/internal/textreport"
)

func main() {
	runIDs := flag.String("run", "all", "comma-separated experiment ids (fig2..fig19, table1..table5) or 'all'")
	data := flag.String("data", "", "dataset directory; empty means -simulate")
	simulate := flag.String("simulate", "test", "simulate a fresh world at this scale (test, bench, full, or a traffic multiplier like 50 = the full world at paper magnitudes) when -data is empty")
	trafficScale := flag.Float64("traffic-scale", 0, "override the traffic-magnitude multiplier for -simulate (0 keeps the scale default)")
	seed := flag.Uint64("seed", 0, "override scenario seed for -simulate")
	mitigation := flag.String("mitigation", "", `fine-grained mitigation policy for -simulate: "flowspec", "escalate" or "mixed" (empty keeps pure RTBH; see table5)`)
	list := flag.Bool("list", false, "list available experiments and exit")
	workers := flag.Int("workers", 0, "how the streaming pass is scheduled: "+cliutil.WorkersUsage)
	ixps := flag.Int("ixps", 1, "federate the world across this many exchanges (with -data, the directory holds ixp0..ixpN-1 datasets)")
	metricsOut := flag.String("metrics", "", `write a JSON metrics snapshot to this path after the run ("-" for stderr)`)
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *list {
		for _, e := range textreport.All() {
			fmt.Fprintf(w, "%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// Validate every input before the (potentially minutes-long)
	// simulate/analyze phases: a typoed experiment id must fail now.
	if err := cliutil.CheckWorkers(*workers); err != nil {
		usageFail(err)
	}
	if err := cliutil.CheckIXPs(*ixps); err != nil {
		usageFail(err)
	}
	var knownIDs []string
	for _, e := range textreport.All() {
		knownIDs = append(knownIDs, e.ID)
	}
	selected, err := cliutil.CheckRunIDs(*runIDs, knownIDs)
	if err != nil {
		usageFail(err)
	}
	if *data != "" {
		if *ixps > 1 {
			for i := 0; i < *ixps; i++ {
				if err := cliutil.CheckDatasetDir(rtbh.IXPDir(*data, i), rtbh.FileMetadata); err != nil {
					usageFail(err)
				}
			}
		} else if err := cliutil.CheckDatasetDir(*data, rtbh.FileMetadata); err != nil {
			usageFail(err)
		}
	}

	var reg *rtbh.MetricsRegistry
	if *metricsOut != "" {
		reg = rtbh.NewMetricsRegistry()
	}

	dir := *data
	if dir == "" {
		cfg, err := cliutil.WorldConfig(*simulate)
		if err != nil {
			usageFail(err)
		}
		if err := cliutil.CheckTrafficScale(*trafficScale); err != nil {
			fmt.Fprintf(os.Stderr, "rtbh-experiments: %v\n", err)
			os.Exit(2)
		}
		if *trafficScale != 0 {
			cfg.TrafficScale = *trafficScale
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.MitigationPolicy = *mitigation
		if err := cfg.Validate(); err != nil {
			usageFail(err)
		}
		tmp, err := os.MkdirTemp("", "rtbh-exp-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "simulating %s-scale world into %s ...\n", *simulate, tmp)
		start := time.Now()
		if *ixps > 1 {
			cfg.IXPs = *ixps
			if _, err := rtbh.SimulateFederated(cfg, tmp); err != nil {
				fail(err)
			}
		} else if _, err := rtbh.SimulateObserved(cfg, tmp, reg); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "simulation done in %v\n", time.Since(start).Round(time.Millisecond))
		dir = tmp
	}

	start := time.Now()
	opts := rtbh.DefaultOptions()
	opts.Workers = *workers

	var report *rtbh.Report
	var fed *rtbh.FederatedReport
	if *ixps > 1 {
		dirs := make([]string, *ixps)
		for i := range dirs {
			dirs[i] = rtbh.IXPDir(dir, i)
		}
		var err error
		if fed, err = rtbh.AnalyzeFederated(dirs, opts); err != nil {
			fail(err)
		}
		report = fed.Global
	} else {
		ds, err := rtbh.OpenDataset(dir)
		if err != nil {
			fail(err)
		}
		opts.Metrics = reg
		if report, err = ds.Analyze(opts); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "analysis done in %v\n", time.Since(start).Round(time.Millisecond))

	switch {
	case fed != nil && selected == nil:
		textreport.RenderFederation(w, fed)
	case selected == nil:
		textreport.RenderAll(w, report)
	default:
		for _, id := range selected {
			e, _ := textreport.ByID(id)
			textreport.RenderOne(w, report, e)
		}
	}

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rtbh-experiments: %v\n", err)
	os.Exit(1)
}

// usageFail reports an invalid invocation (exit code 2, like flag
// parsing errors).
func usageFail(err error) {
	fmt.Fprintf(os.Stderr, "rtbh-experiments: %v\n", err)
	os.Exit(2)
}
