// Command rtbh-sim generates a synthetic IXP blackholing dataset: an MRT
// archive of the route server's BGP feed, an IPFIX archive of 1:N sampled
// flow records, the member/interface metadata, the IP-to-AS table, a
// PeeringDB snapshot, and the ground truth of the planned scenario.
//
// Usage:
//
//	rtbh-sim -out DIR [-scale test|bench|full|MULTIPLIER] [-seed N] [-days N]
//	         [-traffic-scale X] [-ixps N] [-metrics PATH] [-pprof ADDR]
//
// A numeric -scale selects the full 104-day world at that
// traffic-magnitude multiplier AND coarsens the 1:N sampling by the
// same factor: -scale 50 restores the paper's absolute attack rates and
// host baselines (≈50x the documented scaled-down defaults) at 1:500000
// sampling, so every estimated rate lands at paper magnitude while the
// sampled record stream — and the run time — stays at the scale-1 size.
// -traffic-scale applies the raw traffic multiplier to any named world
// size without touching the sampling (e.g. -scale test -traffic-scale
// 50 for a smoke world with 50x the sampled volume).
//
// With -ixps N (N > 1) the world is planned once and run across N
// exchanges, each observing only its members' control messages and
// traffic: DIR/ixp0..ixpN-1 each hold one complete dataset, and
// rtbh-analyze -data DIR merges them (see DESIGN.md, "Federation").
//
// With -metrics, a JSON snapshot of the route server's and the fabric's
// observability metrics is written after the run ("-" for stderr) — of
// exchange 0 when there are several; on a single exchange the fabric
// gauges match the printed summary exactly. With -pprof, the
// net/http/pprof and live /metrics endpoints are served on the given
// address.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	rtbh "repro"
	"repro/internal/cliutil"
	"repro/internal/obs"
)

var fail, usageFail = cliutil.Exits("rtbh-sim")

func main() {
	out := flag.String("out", "dataset", "output directory for the dataset files")
	world := cliutil.RegisterWorldFlags(flag.CommandLine)
	metricsOut := flag.String("metrics", "", cliutil.MetricsUsage)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	cfg, err := world.Config()
	if err != nil {
		usageFail(err)
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

	start := time.Now()
	sum, err := rtbh.SimulateObserved(cfg, *out, reg)
	if err != nil {
		fail(err)
	}
	took := time.Since(start).Round(time.Millisecond)
	if n := len(sum.PerIXP); n > 1 {
		fmt.Printf("%d datasets written under %s in %v\n", n, *out, took)
	} else {
		fmt.Printf("dataset written to %s in %v\n", *out, took)
	}
	cliutil.PrintRunSummary(os.Stdout, cfg, sum, false)

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fail(err)
		}
	}
}
