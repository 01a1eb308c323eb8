// Package rtbh reproduces the measurement study "Down the Black Hole:
// Dismantling Operational Practices of BGP Blackholing at IXPs" (IMC
// 2019) end to end: it simulates a large IXP operating a remotely
// triggered blackholing (RTBH) service — route server, member policies,
// switching fabric with blackhole MAC, 1:N packet sampling, DDoS attacks
// and baseline traffic — and provides the full analysis pipeline that
// regenerates every figure and table of the paper from the resulting
// control-plane (MRT) and data-plane (IPFIX) archives.
//
// Typical use:
//
//	cfg := rtbh.TestConfig()
//	sum, err := rtbh.Simulate(cfg, dir)       // writes MRT+IPFIX+metadata
//	ds, err := rtbh.OpenDataset(dir)          // load what an analyst gets
//	report, err := ds.Analyze(rtbh.DefaultOptions())
//
// A run covers cfg.IXPs exchanges, one dataset each; DatasetDirs reads
// back how many a directory holds, and AnalyzeFederated merges several.
// The same world streams through real transports — BGP over TCP, IPFIX
// over UDP — into online analyzers, one per exchange; the datasets it
// writes are byte-identical to Simulate's:
//
//	lr, err := rtbh.NewLiveRun(cfg, dir, nil)
//	sum, err := lr.Run(ctx)                   // archives + online analysis
//	report, err := lr.Analyzer().Final(rtbh.DefaultOptions())
//	fed, err := lr.Report(rtbh.DefaultOptions()) // merged over all exchanges
//
// An OnlineAnalyzer is the same analysis fed incrementally — control
// updates one by one, flow records batch by batch (ObserveFlowBatch; a
// batch is what Dataset.EachFlowBatch and the live collector deliver) —
// with a Report available mid-stream; see ExampleOnlineAnalyzer.
//
// The simulation and the analysis share no state beyond the dataset
// files: the analysis only sees what the paper's authors saw (BGP
// messages, sampled flow records, the member interface database, routing
// tables and PeeringDB), plus an optional ground-truth file used by the
// experiment harness to validate recovered results.
package rtbh

import (
	"repro/internal/scenario"
)

// Config parameterizes a simulated measurement period. It is an alias of
// the scenario configuration so that all knobs are available without
// importing internal packages.
type Config = scenario.Config

// GroundTruth is the machine-readable truth the simulator emits alongside
// the datasets.
type GroundTruth = scenario.GroundTruth

// DefaultConfig returns the paper-scale world: 104 days, 830 members,
// ~34k RTBH events, 1:10,000 sampling. Simulation takes about five
// seconds and produces 12.1M flow records (612 MB on disk; see
// EXPERIMENTS.md).
func DefaultConfig() Config { return scenario.DefaultConfig() }

// TestConfig returns a miniature world for tests and quick exploration.
func TestConfig() Config { return scenario.TestConfig() }

// BenchConfig returns the mid-size world used by the benchmark harness.
func BenchConfig() Config { return scenario.BenchConfig() }
