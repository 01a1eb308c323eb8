// Command rtbh-analyze runs the paper's full analysis pipeline over a
// dataset directory produced by rtbh-sim (or any dataset in the same
// format) and prints every reproduced figure and table with the paper's
// reported values alongside.
//
// Usage:
//
//	rtbh-analyze -data DIR [-delta 10m] [-threshold 2.5] [-min-days 20]
//	             [-metrics PATH] [-pprof ADDR]
//
// With -metrics, a JSON snapshot of the analysis observability metrics
// (pipeline stage counters and timers, dropstats totals) is written after
// the run; "-" writes to stderr. The snapshot's counters reconcile
// exactly with the printed report (see DESIGN.md, "Observability"). With
// -pprof, net/http/pprof and a live /metrics endpoint are served on the
// given address for profiling long runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	rtbh "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/textreport"
)

func main() {
	data := flag.String("data", "dataset", "dataset directory (from rtbh-sim)")
	delta := flag.Duration("delta", 10*time.Minute, "RTBH event merge threshold")
	threshold := flag.Float64("threshold", 2.5, "EWMA anomaly threshold in standard deviations")
	minDays := flag.Int("min-days", 20, "minimum active days for host profiling")
	offsetStep := flag.Duration("offset-step", 10*time.Millisecond, "time-offset MLE grid step")
	workers := flag.Int("workers", 0, "how the streaming pass is scheduled: "+cliutil.WorkersUsage)
	metricsOut := flag.String("metrics", "", `write a JSON metrics snapshot to this path after the analysis ("-" for stderr)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	if err := cliutil.CheckWorkers(*workers); err != nil {
		fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
		os.Exit(2)
	}
	if err := cliutil.CheckDatasetDir(*data, rtbh.FileMetadata); err != nil {
		fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
		os.Exit(2)
	}

	var reg *rtbh.MetricsRegistry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = rtbh.NewMetricsRegistry()
	}
	if *pprofAddr != "" {
		if err := obs.StartDebugServer(*pprofAddr, reg); err != nil {
			fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
			os.Exit(1)
		}
	}

	ds, err := rtbh.OpenDataset(*data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
		os.Exit(1)
	}
	opts := rtbh.DefaultOptions()
	opts.Delta = *delta
	opts.Threshold = *threshold
	opts.MinActiveDays = *minDays
	opts.OffsetStep = *offsetStep
	opts.Workers = *workers
	opts.Metrics = reg

	start := time.Now()
	report, err := ds.Analyze(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "analysis finished in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "records: %d total, %d internal (cleaned), %d attributed to blackholed prefixes, %d dropped\n",
		report.TotalRecords, report.InternalRecords, report.AttributedRecords, report.DroppedRecords)
	fmt.Fprintf(w, "control plane: %d updates -> %d RTBH events at delta %v\n\n",
		len(ds.Updates), len(report.Events), *delta)
	textreport.RenderAll(w, report)

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "rtbh-analyze: %v\n", err)
			os.Exit(1)
		}
	}
}
