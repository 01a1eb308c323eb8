// Package cliutil validates command-line inputs shared by the rtbh
// binaries, turning the usual late, cryptic failures (a negative worker
// count deep in the pipeline, an open() error after minutes of
// simulation) into immediate, actionable messages.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	rtbh "repro"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Exits returns the two ways a binary called name gives up, both with
// "name: err" on stderr: fail for a run that broke (exit status 1) and
// usageFail for an invalid invocation (2, like flag parsing errors).
func Exits(name string) (fail, usageFail func(error)) {
	exit := func(code int) func(error) {
		return func(err error) {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(code)
		}
	}
	return exit(1), exit(2)
}

// WorkersUsage is the value part of every -workers flag's help.
const WorkersUsage = "1 = one goroutine, 0 = one goroutine per operator and per compose section over GOMAXPROCS (one goroutine when GOMAXPROCS is 1); N > 1 means 0"

// CheckWorkers validates a -workers flag (see WorkersUsage): any count
// from 0 up is accepted, negatives are rejected.
func CheckWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers must be >= 0 (%s), got %d", WorkersUsage, n)
	}
	return nil
}

// CheckDays validates a -days override: 0 keeps the scale default.
func CheckDays(n int) error {
	if n < 0 {
		return fmt.Errorf("-days must be >= 0 (0 keeps the scale default), got %d", n)
	}
	return nil
}

// WithDays applies a -days override to a world: the period becomes days
// long and the event and victim budgets scale with it, so the world keeps
// its event density — fewer days are a shorter run of the same world, not
// the whole period's events packed into them. 0 keeps the scale default.
func WithDays(cfg scenario.Config, days int) scenario.Config {
	if days == 0 {
		return cfg
	}
	cfg.EventsTotal = cfg.EventsTotal * days / cfg.Days
	cfg.UniqueVictims = cfg.UniqueVictims * days / cfg.Days
	cfg.Days = days
	return cfg
}

// CheckIXPs validates an -ixps flag: the federation needs at least one
// exchange.
func CheckIXPs(n int) error {
	if n < 1 {
		return fmt.Errorf("-ixps must be >= 1, got %d", n)
	}
	return nil
}

// CheckSnapshotEvery validates an explicitly set -snapshot-every flag:
// the cadence must be a positive duration (omit the flag to disable
// periodic snapshots).
func CheckSnapshotEvery(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-snapshot-every must be a positive duration (omit the flag to disable snapshots), got %v", d)
	}
	return nil
}

// CheckServeAddr validates a -serve listen address: it must be a
// host:port pair net.Listen would accept (an empty host binds every
// interface; the port may be 0 for an ephemeral one).
func CheckServeAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("-serve requires a listen address (e.g. :8080 or localhost:8080)")
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("-serve address %q is not host:port: %v", addr, err)
	}
	return nil
}

// ParseScale interprets a -scale value. The named world sizes (test,
// bench, full) pass through with a traffic scale of 0 (= the documented
// scaled-down magnitudes); a positive number selects the full paper
// world at that traffic-magnitude multiplier, so "-scale 50" is the
// 104-day period at the paper's absolute traffic volumes. The binaries
// couple a numeric scale with an equally coarser 1:N sampling
// denominator — the paper configuration: rate estimates (samples x
// denominator) land at absolute paper magnitudes while the sampled
// record stream, and so the run time, stays at the scale-1 size.
func ParseScale(spec string) (world string, trafficScale float64, err error) {
	switch spec {
	case "test", "bench", "full":
		return spec, 0, nil
	}
	s, perr := strconv.ParseFloat(spec, 64)
	if perr != nil || s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return "", 0, fmt.Errorf("-scale must be test, bench, full, or a positive traffic multiplier (e.g. 50), got %q", spec)
	}
	return "full", s, nil
}

// WorldConfig turns a -scale value into the world it names: the test,
// bench or full configuration, and for a numeric scale the paper
// configuration — the full world at that traffic multiplier with the
// sampling coarsened by the same factor (see ParseScale).
func WorldConfig(spec string) (scenario.Config, error) {
	world, trafficScale, err := ParseScale(spec)
	if err != nil {
		return scenario.Config{}, err
	}
	var cfg scenario.Config
	switch world {
	case "test":
		cfg = scenario.TestConfig()
	case "bench":
		cfg = scenario.BenchConfig()
	case "full":
		cfg = scenario.DefaultConfig()
	}
	cfg.TrafficScale = trafficScale
	if trafficScale != 0 {
		cfg.SamplingRate = int64(float64(cfg.SamplingRate)*trafficScale + 0.5)
	}
	return cfg, nil
}

// WorldFlags are the flags that choose the simulated world, the same six
// on rtbh-sim and rtbh-live: register them on the binary's flag set, then
// take the Config after parsing.
type WorldFlags struct {
	Scale        string
	TrafficScale float64
	Seed         uint64
	Days         int
	Mitigation   string
	IXPs         int
}

// RegisterWorldFlags declares the world flags on fs.
func RegisterWorldFlags(fs *flag.FlagSet) *WorldFlags {
	f := &WorldFlags{}
	fs.StringVar(&f.Scale, "scale", "test", "world scale: test, bench, full, or a traffic multiplier (e.g. 50 = the full 104-day world at the paper's absolute traffic magnitudes)")
	fs.Float64Var(&f.TrafficScale, "traffic-scale", 0, "override the traffic-magnitude multiplier on any world scale (0 keeps the scale default)")
	fs.Uint64Var(&f.Seed, "seed", 0, "override the scenario seed (0 keeps the scale default)")
	fs.IntVar(&f.Days, "days", 0, "override the measurement-period length in days; keeps event density: the event and victim budgets scale with it (0 keeps the scale default)")
	fs.StringVar(&f.Mitigation, "mitigation", "", `fine-grained mitigation policy: "flowspec", "escalate" or "mixed" (empty keeps pure RTBH; see the table5 report section)`)
	fs.IntVar(&f.IXPs, "ixps", 1, "federate the world across this many exchanges, writing one dataset each to ixp0..ixpN-1 under -out")
	return f
}

// Config checks the parsed world flags, applies them to the world -scale
// names and validates the result (scenario.Config.Validate holds the
// -traffic-scale rule). Every error is a usage error.
func (f *WorldFlags) Config() (scenario.Config, error) {
	cfg, err := WorldConfig(f.Scale)
	for _, err := range []error{err, CheckDays(f.Days), CheckIXPs(f.IXPs)} {
		if err != nil {
			return scenario.Config{}, err
		}
	}
	if f.Seed != 0 {
		cfg.Seed = f.Seed
	}
	cfg = WithDays(cfg, f.Days)
	if f.TrafficScale != 0 {
		cfg.TrafficScale = f.TrafficScale
	}
	cfg.MitigationPolicy = f.Mitigation
	if f.IXPs > 1 {
		cfg.IXPs = f.IXPs
	}
	return cfg, cfg.Validate()
}

// MetricsUsage is the help of every -metrics flag.
const MetricsUsage = `write a JSON metrics snapshot to this path when done ("-" for stderr); over several exchanges it covers exchange 0`

// PrintRunSummary prints what a run over sum's exchanges produced, below
// its binary's headline: the period, then the control- and data-plane
// volumes of the one exchange, or a line per exchange. live selects
// rtbh-live's wording: transports named, what its report repeats left out.
func PrintRunSummary(w io.Writer, cfg scenario.Config, sum *rtbh.SimulationSummary, live bool) {
	flows, overTCP, overUDP := "sampled flow records", "", ""
	if live {
		flows, overTCP, overUDP = "flow records", " over BGP/TCP", " over IPFIX/UDP"
	}
	fmt.Fprintf(w, "period: %s + %d days, seed %d, sampling 1:%d",
		cfg.Start.Format("2006-01-02"), cfg.Days, cfg.Seed, cfg.SamplingRate)
	if !live {
		fmt.Fprintf(w, ", traffic x%g", cfg.Scale())
	}
	if len(sum.PerIXP) > 1 {
		fmt.Fprintf(w, ", multi-homed members: %d", len(sum.MultiHomedMembers))
	}
	fmt.Fprintln(w)
	if !live {
		fmt.Fprintf(w, "members: %d, blackholed hosts: %d, RTBH events: %d\n", sum.Members, sum.Hosts, sum.Events)
	}
	if len(sum.PerIXP) > 1 {
		for i, x := range sum.PerIXP {
			fmt.Fprintf(w, "ixp%d: %d control messages, %d %s (%d packets offered, %d dropped)\n",
				i, x.ControlMsgs, x.FlowRecords, flows, x.PacketsIn, x.PacketsDropped)
		}
		return
	}
	fmt.Fprintf(w, "control plane: %d messages%s (%d announcements, %d withdrawals)\n",
		sum.ControlMsgs, overTCP, sum.Announcements, sum.Withdrawals)
	fmt.Fprintf(w, "data plane: %d %s%s (%d packets offered, %d dropped)\n",
		sum.FlowRecords, flows, overUDP, sum.PacketsIn, sum.PacketsDropped)
	if !live {
		fmt.Fprintf(w, "generator: %d packet batches (%d of them pieces cut at mitigation transitions; at most %d a day)\n",
			sum.Batches, sum.SplitSegments, sum.MaxDayBatches)
	}
}

// CheckLiveModes validates rtbh-live's mode flags against the exchange
// count. What a looking glass over several exchanges means is undecided
// (federation v2), so it stays single-exchange (LiveRun.EnableDetector
// holds the detector to one exchange the same way); the snapshot
// transport only exists between several.
func CheckLiveModes(ixps int, serve, snapshotChaos bool) error {
	switch {
	case serve && ixps > 1:
		return fmt.Errorf("-serve supports a single exchange; drop -ixps or the -serve flag")
	case snapshotChaos && ixps <= 1:
		return fmt.Errorf("-snapshot-chaos-profile impairs the snapshot transport between exchanges; add -ixps N (N > 1) or drop the flag")
	}
	return nil
}

// WriteMetrics dumps the registry snapshot as JSON to path; "-" writes
// to stderr, so a report on stdout stays machine-separable from the
// metrics.
func WriteMetrics(reg *obs.Registry, path string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return snap.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CheckRunIDs validates a comma-separated -run list against the known
// experiment ids. "all" selects everything. Unknown ids are rejected
// with the full list of valid ones, before any work starts.
func CheckRunIDs(spec string, known []string) ([]string, error) {
	if spec == "all" {
		return nil, nil
	}
	knownSet := make(map[string]bool, len(known))
	for _, id := range known {
		knownSet[id] = true
	}
	var ids []string
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !knownSet[id] {
			sorted := append([]string(nil), known...)
			sort.Strings(sorted)
			return nil, fmt.Errorf("unknown experiment %q; valid ids: all, %s", id, strings.Join(sorted, ", "))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-run selects no experiments (try -run all or -list)")
	}
	return ids, nil
}
