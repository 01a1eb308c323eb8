// Command rtbh-analyze runs the paper's full analysis pipeline over a
// dataset directory produced by rtbh-sim (or any dataset in the same
// format) and prints every reproduced figure and table — or the ones
// -run selects — with the paper's reported values alongside.
//
// Usage:
//
//	rtbh-analyze -data DIR [-delta 10m] [-threshold 2.5] [-min-days 20]
//	             [-run fig5,table3] [-metrics PATH] [-pprof ADDR]
//	rtbh-analyze -list
//
// DIR says what it holds (rtbh.DatasetDirs): one dataset, or the
// ixp0..ixpN-1 datasets rtbh-sim -ixps N writes. Of several, each
// exchange's archive is reduced to a snapshot, the snapshots are merged
// through the federation coordinator, and the report adds the
// cross-exchange leakage view (see DESIGN.md, "Federation").
//
// With -metrics, a JSON snapshot of the analysis observability metrics
// (pipeline stage counters and timers, dropstats totals) is written after
// the run; "-" writes to stderr. On one dataset the snapshot's counters
// reconcile exactly with the printed report (see DESIGN.md,
// "Observability"); of several it covers exchange 0's pass. With
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

var fail, usageFail = cliutil.Exits("rtbh-analyze")

func main() {
	data := flag.String("data", "dataset", "dataset directory (from rtbh-sim)")
	delta := flag.Duration("delta", 10*time.Minute, "RTBH event merge threshold")
	threshold := flag.Float64("threshold", 2.5, "EWMA anomaly threshold in standard deviations")
	minDays := flag.Int("min-days", 20, "minimum active days for host profiling")
	offsetStep := flag.Duration("offset-step", 10*time.Millisecond, "time-offset MLE grid step")
	workers := flag.Int("workers", 0, "how the streaming pass and the report's compose are scheduled: "+cliutil.WorkersUsage)
	runIDs := flag.String("run", "all", "comma-separated experiment ids to print (fig2..fig19, table1..table5) or 'all'")
	list := flag.Bool("list", false, "list the experiment ids and exit")
	metricsOut := flag.String("metrics", "", cliutil.MetricsUsage)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	var knownIDs []string
	for _, e := range textreport.All() {
		if *list {
			fmt.Fprintf(w, "%-8s %s\n", e.ID, e.Title)
		}
		knownIDs = append(knownIDs, e.ID)
	}
	if *list {
		return
	}

	// Every input is validated before the analysis starts: a typoed
	// experiment id must fail now, not after minutes of work.
	selected, err := cliutil.CheckRunIDs(*runIDs, knownIDs)
	dirs, dirErr := rtbh.DatasetDirs(*data)
	for _, err := range []error{err, cliutil.CheckWorkers(*workers), dirErr} {
		if err != nil {
			usageFail(err)
		}
	}

	var reg *rtbh.MetricsRegistry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = rtbh.NewMetricsRegistry()
	}
	if *pprofAddr != "" {
		if err := obs.StartDebugServer(*pprofAddr, reg); err != nil {
			fail(err)
		}
	}

	opts := rtbh.DefaultOptions()
	opts.Delta = *delta
	opts.Threshold = *threshold
	opts.MinActiveDays = *minDays
	opts.OffsetStep = *offsetStep
	opts.Workers = *workers
	opts.Metrics = reg

	start := time.Now()
	var report *rtbh.Report
	var fed *rtbh.FederatedReport
	var control string
	if len(dirs) > 1 {
		if fed, err = rtbh.AnalyzeFederated(dirs, opts); err != nil {
			fail(err)
		}
		report, control = fed.Global, fmt.Sprintf("%d exchanges", len(dirs))
	} else {
		ds, err := rtbh.OpenDataset(dirs[0])
		if err != nil {
			fail(err)
		}
		if report, err = ds.Analyze(opts); err != nil {
			fail(err)
		}
		control = fmt.Sprintf("%d updates", len(ds.Updates))
	}

	fmt.Fprintf(w, "analysis finished in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "records: %d total, %d internal (cleaned), %d attributed to blackholed prefixes, %d dropped\n",
		report.TotalRecords, report.InternalRecords, report.AttributedRecords, report.DroppedRecords)
	fmt.Fprintf(w, "control plane: %s -> %d RTBH events at delta %v\n\n", control, len(report.Events), *delta)
	switch {
	case selected != nil:
		for _, id := range selected {
			e, _ := textreport.ByID(id)
			textreport.RenderOne(w, report, e)
		}
	case fed != nil:
		textreport.RenderFederation(w, fed)
	default:
		textreport.RenderAll(w, report)
	}
	w.Flush() // before a failing metrics write can exit past the deferred one

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fail(err)
		}
	}
}
