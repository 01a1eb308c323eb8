package main

import (
	"fmt"

	rtbh "repro"
)

// A workload is a world: a scenario configuration. Every workload runs
// the same three paths (batch, glass, live), so the worlds — not the code
// paths — decide which layer does the work.
type workload struct {
	name string
	why  string
	// lossFree marks a world the live collector must keep up with: any
	// dropped record there is a failed verification.
	lossFree bool
	// build returns the planned world before sizing; sizeWorld then sets
	// the sampling denominator so that the world holds about records
	// sampled flow records: large enough that a repetition is well above
	// timer and scheduler noise, small enough that three fit one run.
	build   func() rtbh.Config
	records int64
}

// planSeed is the Config.Seed of every workload: who attacks whom, when
// and how hard is part of the workload, not of the run. The generator
// draws attack sizes from a heavy-tailed distribution, and one seed's
// draw decides how much operator state the analyzer carries: over plan
// seeds 11..20 of the flowheavy world, at the same record count, the mean
// snapshot latency ranged from 418 to 784 ms and the peak RSS from 364 to
// 851 MB. The run's --seed re-draws the sample instead (see resample).
const planSeed = 1

// resampleSpan bounds how far --seed moves the sampling denominator: far
// enough that every record of the archive differs, little enough (below
// 0.5 % of the smallest denominator a world is sized to) that the record
// count does not.
const resampleSpan = 16

// resample makes the run's inputs from its seed: the sized world sampled
// at 1:(N + seed mod resampleSpan). The sampler and every per-packet draw
// share one random stream, so a different denominator gives a different
// sample of the same traffic: other packets, timestamps, ports and
// reflector addresses in every record, the same structure and volume.
func resample(cfg rtbh.Config, seed uint64) rtbh.Config {
	cfg.SamplingRate += int64(seed % resampleSpan)
	return cfg
}

// paperDays is the length the paper world is truncated to: the shortest
// period the scenario accepts (72-hour pre-windows need more than three
// days), because one run has to fit three repetitions of every path.
const paperDays = 4

// workloads lists the benchmark worlds in reporting order. The names and
// reasons are mirrored in BENCHMARK.json (a test compares them).
var workloads = []workload{
	{
		name:     "paper",
		why:      "paper configuration (830 sessions, 20000 remote ASes, 34000/104 events per day) cut to 4 days, 300k records: route-server fan-out, update round trips and compose dominate; live is loss-free",
		lossFree: true,
		records:  300_000,
		build: func() rtbh.Config {
			cfg := rtbh.DefaultConfig()
			cfg.Seed = planSeed
			return truncateDays(cfg, paperDays)
		},
	},
	{
		name:    "flowheavy",
		why:     "small world (120 members, 30 days, 885 events), 1M records: IPFIX decode, shard dispatch and operators dominate; the live collector is overloaded, so goodput shows per-record cost",
		records: 1_000_000,
		build: func() rtbh.Config {
			cfg := rtbh.TestConfig()
			cfg.Seed = planSeed
			return cfg
		},
	},
	{
		name:    "escalate",
		why:     "flowheavy with RTBH-to-FlowSpec escalation: same volume, but rule validation, per-batch rule matching in the fabric and the mitigation operator are exercised",
		records: 1_000_000,
		build: func() rtbh.Config {
			cfg := rtbh.TestConfig()
			cfg.Seed = planSeed
			cfg.MitigationPolicy = "escalate"
			return cfg
		},
	},
}

// truncateDays shortens a world to days while keeping its event density:
// EventsTotal and UniqueVictims scale with days/cfg.Days, everything else
// is untouched. Setting Config.Days alone (what `rtbh-sim -days` does)
// keeps EventsTotal, packing the whole period's events into the shorter
// window — a denser and slower world, not a shorter one.
func truncateDays(cfg rtbh.Config, days int) rtbh.Config {
	if days >= cfg.Days {
		return cfg
	}
	cfg.EventsTotal = cfg.EventsTotal * days / cfg.Days
	cfg.UniqueVictims = cfg.UniqueVictims * days / cfg.Days
	cfg.Days = days
	return cfg
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
