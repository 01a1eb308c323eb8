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
// rtbh-analyze -ixps N merges them (see DESIGN.md, "Federation").
//
// With -metrics, a JSON snapshot of the route server's and the fabric's
// observability metrics is written after the run ("-" for stderr); the
// fabric gauges match the printed summary exactly. With -pprof, the
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

func main() {
	out := flag.String("out", "dataset", "output directory for the dataset files")
	scale := flag.String("scale", "test", "world scale: test, bench, full, or a traffic multiplier (e.g. 50 = the full 104-day world at the paper's absolute traffic magnitudes)")
	trafficScale := flag.Float64("traffic-scale", 0, "override the traffic-magnitude multiplier on any world scale (0 keeps the scale default)")
	seed := flag.Uint64("seed", 0, "override the scenario seed (0 keeps the scale default)")
	days := flag.Int("days", 0, "override the measurement-period length in days; keeps event density: the event and victim budgets scale with it (0 keeps the scale default)")
	mitigation := flag.String("mitigation", "", `fine-grained mitigation policy: "flowspec", "escalate" or "mixed" (empty keeps pure RTBH)`)
	ixps := flag.Int("ixps", 1, "federate the world across this many exchanges, writing one dataset each to ixp0..ixpN-1 under -out")
	metricsOut := flag.String("metrics", "", `write a JSON metrics snapshot to this path after the run ("-" for stderr)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	cfg, err := cliutil.WorldConfig(*scale)
	if err != nil {
		usageFail(err)
	}
	for _, err := range []error{
		cliutil.CheckDays(*days),
		cliutil.CheckTrafficScale(*trafficScale),
		cliutil.CheckBatchIXPs(*ixps, *metricsOut != ""),
	} {
		if err != nil {
			usageFail(err)
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg = cliutil.WithDays(cfg, *days)
	if *trafficScale != 0 {
		cfg.TrafficScale = *trafficScale
	}
	cfg.MitigationPolicy = *mitigation
	if *ixps > 1 {
		cfg.IXPs = *ixps
	}
	if err := cfg.Validate(); err != nil {
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
	if *ixps > 1 {
		sum, err := rtbh.SimulateFederated(cfg, *out)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d datasets written under %s in %v\n", *ixps, *out, time.Since(start).Round(time.Millisecond))
		fmt.Printf("period: %s + %d days, seed %d, sampling 1:%d, traffic x%g, multi-homed members: %d\n",
			cfg.Start.Format("2006-01-02"), cfg.Days, cfg.Seed, cfg.SamplingRate, cfg.Scale(), len(sum.MultiHomedMembers))
		fmt.Printf("members: %d, blackholed hosts: %d, RTBH events: %d\n", sum.Members, sum.Hosts, sum.Events)
		for i := 0; i < *ixps; i++ {
			fmt.Printf("ixp%d: %d control messages, %d sampled flow records (%d packets offered, %d dropped)\n",
				i, sum.ControlMsgs[i], sum.FlowRecords[i], sum.PacketsIn[i], sum.PacketsDropped[i])
		}
		return
	}
	sum, err := rtbh.SimulateObserved(cfg, *out, reg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset written to %s in %v\n", *out, time.Since(start).Round(time.Millisecond))
	fmt.Printf("period: %s + %d days, seed %d, sampling 1:%d, traffic x%g\n",
		cfg.Start.Format("2006-01-02"), cfg.Days, cfg.Seed, cfg.SamplingRate, cfg.Scale())
	fmt.Printf("members: %d, blackholed hosts: %d, RTBH events: %d\n",
		sum.Members, sum.Hosts, sum.Events)
	fmt.Printf("control plane: %d messages (%d announcements, %d withdrawals)\n",
		sum.ControlMsgs, sum.Announcements, sum.Withdrawals)
	fmt.Printf("data plane: %d sampled flow records (%d packets offered, %d dropped)\n",
		sum.FlowRecords, sum.PacketsIn, sum.PacketsDropped)
	fmt.Printf("generator: %d packet batches (%d of them pieces cut at mitigation transitions; at most %d a day)\n",
		sum.Batches, sum.SplitSegments, sum.MaxDayBatches)

	if *metricsOut != "" {
		if err := cliutil.WriteMetrics(reg, *metricsOut); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rtbh-sim: %v\n", err)
	os.Exit(1)
}

// usageFail reports an invalid invocation (exit code 2, like flag
// parsing errors).
func usageFail(err error) {
	fmt.Fprintf(os.Stderr, "rtbh-sim: %v\n", err)
	os.Exit(2)
}
