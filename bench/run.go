package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rtbh "repro"
	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/textreport"
)

// runner carries one workload run: the sized world, the scratch
// directory, the operation tally behind `failed`/`attempted`, and the
// samples every metric is reduced from.
type runner struct {
	wl   workload
	seed uint64
	cfg  rtbh.Config
	root string
	opts rtbh.Options
	out  io.Writer

	attempted, failed int
	// samples holds every metric's samples; for the timed end-to-end
	// metrics they are normalised to the machine's speed at the time
	// (see section), and raw holds the same samples as the clock read.
	samples, raw map[string][]float64

	// ref is the machine-speed reference; nil (traced runs) turns the
	// normalisation off. lastRef is the most recent kernel time and
	// lastRefAt when it was taken.
	ref       *refKernel
	lastRef   time.Duration
	lastRefAt time.Time
	refMS     []float64 // every reading, for the run's summary line

	// rec is the traced repetition's span recorder (nil when untraced):
	// every timed section becomes a span under spanParent.
	rec        *recorder
	spanParent int

	// Reference outputs of the first batch repetition: every later
	// repetition, the glass replay and loss-free live runs must
	// reproduce them byte for byte.
	refDir    string
	refReport []byte
	refSum    *rtbh.SimulationSummary
}

func newRunner(wl workload, seed uint64, root string, out io.Writer) *runner {
	return &runner{
		wl: wl, seed: seed, root: root, out: out,
		opts:    rtbh.DefaultOptions(),
		samples: map[string][]float64{},
		raw:     map[string][]float64{},
	}
}

func (r *runner) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// addTime records a duration sample in seconds: raw as timed, and scaled
// by the section's machine-speed factor.
func (r *runner) addTime(name string, d time.Duration, speed float64) {
	r.raw[name] = append(r.raw[name], d.Seconds())
	r.add(name, d.Seconds()*speed)
}

// addRate records a work-per-second sample the same way.
func (r *runner) addRate(name string, work float64, d time.Duration, speed float64) {
	r.raw[name] = append(r.raw[name], work/d.Seconds())
	r.add(name, work/(d.Seconds()*speed))
}

// refWeight is how much of the kernel's slow-down a section is corrected
// by. The reading is a noisy estimate of the machine's state during the
// section (80 ms next to seconds) and the kernel is more sensitive to the
// shared cache than the program is, so a full correction over-corrects:
// regressing log section time on log kernel time over 30 runs gave slopes
// of 0.6-0.8, and on four ten-seed sweeps 0.75 gave the smallest spread
// between runs (mean 8.6 % of the median, against 9.5 % at 1 and 16 % at 0).
const refWeight = 0.75

// probeFresh is how old a reference reading may be and still count as
// taken right before a section.
const probeFresh = 50 * time.Millisecond

func (r *runner) probe() time.Duration {
	r.lastRef = r.ref.run()
	r.lastRefAt = time.Now()
	r.refMS = append(r.refMS, float64(r.lastRef)/1e6)
	return r.lastRef
}

// section runs fn as one timed section, named for the traced repetition's
// span. It returns fn's wall time and the factor that converts it to
// normalised seconds: (refNominal over the reference kernel's time, taken
// right before and right after fn) to the power refWeight. This VM's
// speed drifts by ±15 % over minutes and drops to a half or a third for
// minutes at a time when the host takes the CPU away; the kernel drops
// with it, so the product stays where the wall time alone does not
// (README, "Machine-speed normalisation"). Back-to-back sections share
// the reading between them.
func (r *runner) section(name string, fn func()) (time.Duration, float64) {
	if r.ref == nil {
		runtime.GC()
		if r.rec != nil {
			return r.rec.timed(name, r.spanParent, fn), 1
		}
		start := time.Now()
		fn()
		return time.Since(start), 1
	}
	before := r.lastRef
	if time.Since(r.lastRefAt) > probeFresh {
		before = r.probe()
	}
	// Every section starts from a collected heap: otherwise it pays for
	// the garbage of whatever ran before it (the kernel included), and
	// how many collections fall inside it differs from run to run.
	runtime.GC()
	start := time.Now()
	fn()
	d := time.Since(start)
	after := r.probe()
	fmt.Fprintf(r.out, "  section %-16s %9.4f s  kernel %6.1f ms before, %6.1f ms after\n",
		name, d.Seconds(), float64(before)/1e6, float64(after)/1e6)
	return d, math.Pow(float64(2*refNominal)/float64(before+after), refWeight)
}

// op counts one attempted operation and, when err is non-nil, one failed.
func (r *runner) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.out, "FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one verification.
func (r *runner) check(ok bool, format string, args ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	return r.op("verification", err)
}

// packetCounter is a scenario.Executor that only sums the offered
// packets: the cheapest walk of a planned world's traffic.
type packetCounter struct{ packets int64 }

func (*packetCounter) Control(time.Time, uint32, *bgp.Update) error { return nil }
func (c *packetCounter) Inject(b *fabric.Batch) error               { c.packets += b.Packets; return nil }

// sizeWorld fixes the world's sampled-record count: it walks the planned
// traffic once and sets the 1:N sampling denominator so that about target
// records are sampled, whatever the generator's traffic magnitudes are.
func sizeWorld(cfg rtbh.Config, target int64) (rtbh.Config, error) {
	w, err := scenario.Plan(cfg)
	if err != nil {
		return cfg, err
	}
	pc := &packetCounter{}
	if _, err := scenario.Drive(w, func(*stats.RNG) (scenario.Executor, error) { return pc, nil }); err != nil {
		return cfg, err
	}
	cfg.SamplingRate = max((pc.packets+target/2)/target, 1)
	return cfg, nil
}

// analyzeDir is the batch analysis a user runs: open the dataset,
// analyze at the given worker count, render the full report.
func (r *runner) analyzeDir(dir string, workers int, reg *rtbh.MetricsRegistry) ([]byte, *rtbh.Report, error) {
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		return nil, nil, err
	}
	opts := r.opts
	opts.Workers = workers
	opts.Metrics = reg
	rep, err := ds.Analyze(opts)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	textreport.RenderAll(&buf, rep)
	return buf.Bytes(), rep, nil
}

// batchRep is one repetition of the batch path: simulate, then analyze
// at GOMAXPROCS workers, then again at one worker. It returns the time
// the three sections took.
func (r *runner) batchRep(rep int) time.Duration {
	dir := filepath.Join(r.root, fmt.Sprintf("batch-%d", rep))
	var (
		sum        *rtbh.SimulationSummary
		out0, out1 []byte
		report     *rtbh.Report
		err        error
	)
	simD, simK := r.section("simulate", func() { sum, err = rtbh.Simulate(r.cfg, dir) })
	if !r.op("simulate", err) {
		return simD
	}
	d0, k0 := r.section("analyze", func() { out0, report, err = r.analyzeDir(dir, 0, nil) })
	if !r.op("analyze", err) {
		return simD + d0
	}
	d1, k1 := r.section("analyze.w1", func() { out1, _, err = r.analyzeDir(dir, 1, nil) })
	if !r.op("analyze workers=1", err) {
		return simD + d0 + d1
	}
	r.addTime("simulate_s", simD, simK)
	r.addTime("analyze_s", d0, k0)
	r.addTime("analyze_w1_s", d1, k1)
	r.raw["batch_wall_s"] = append(r.raw["batch_wall_s"], (simD + d0).Seconds())
	r.add("batch_wall_s", simD.Seconds()*simK+d0.Seconds()*k0)

	r.check(bytes.Equal(out0, out1), "rep %d: report differs between workers=0 and workers=1", rep)
	r.check(report.TotalRecords == sum.FlowRecords,
		"rep %d: report counts %d records, simulation wrote %d", rep, report.TotalRecords, sum.FlowRecords)
	if r.refReport == nil {
		r.refDir, r.refReport, r.refSum = dir, out0, sum
		return simD + d0 + d1
	}
	r.check(bytes.Equal(out0, r.refReport), "rep %d: report differs from the first repetition's", rep)
	os.RemoveAll(dir)
	return simD + d0 + d1
}

// liveStats is what one live run reports beyond its timings.
type liveStats struct {
	runS, finalS                 float64
	exported, collected, dropped int64
	snap                         rtbh.MetricsSnapshot
}

// liveRep is one repetition of the live path: the program's own driver
// over loopback BGP/TCP and IPFIX/UDP with the inert fault plan, which
// is what gives the drain its Sync loop (see README, Findings). Every
// repetition is reconciled (collected + dropped == exported, and a
// loss-free run wrote Simulate's archives); with final set the run's
// final report is rendered and verified too, which costs about as much
// as the run itself and is therefore done once per benchmark run.
func (r *runner) liveRep(rep int, final bool) *liveStats {
	dir := filepath.Join(r.root, fmt.Sprintf("live-%d", rep))
	defer os.RemoveAll(dir)
	reg := rtbh.NewMetricsRegistry()
	lr, err := rtbh.NewLiveRun(r.cfg, dir, reg)
	if err == nil {
		err = lr.EnableChaos(r.seed, "none")
	}
	if !r.op("live run set-up", err) {
		return nil
	}
	var ls liveStats
	runD, runK := r.section("live.run", func() { _, err = lr.Run(context.Background()) })
	if !r.op("live run", err) {
		return nil
	}
	ls.runS = runD.Seconds()
	ls.snap = reg.Snapshot()
	ls.exported = ls.snap.Counter("live.ipfix.exported_records")
	ls.collected = ls.snap.Counter("live.ipfix.collected_records")
	ls.dropped = ls.snap.Counter("live.ipfix.dropped_records")
	r.addRate("live_goodput_records_per_s", float64(ls.collected), runD, runK)
	r.add("live.loss_share", float64(ls.dropped)/float64(ls.exported))

	r.check(ls.collected+ls.dropped == ls.exported,
		"live rep %d: collected %d + dropped %d != exported %d", rep, ls.collected, ls.dropped, ls.exported)
	if r.wl.lossFree {
		r.check(ls.dropped == 0, "live rep %d: %s must be loss-free, dropped %d records", rep, r.wl.name, ls.dropped)
	}
	lossFree := ls.dropped == 0 && r.refDir != ""
	if lossFree {
		for _, name := range []string{rtbh.FileUpdates, rtbh.FileFlows} {
			r.check(sameFile(filepath.Join(dir, name), filepath.Join(r.refDir, name)),
				"live rep %d: %s differs from the batch archive", rep, name)
		}
	}
	if !final {
		return &ls
	}

	var report *rtbh.Report
	finalD, _ := r.section("live.final", func() { report, err = lr.Analyzer().Final(r.opts) })
	ls.finalS = finalD.Seconds()
	if !r.op("live final report", err) {
		return nil
	}
	var rendered bytes.Buffer
	textreport.RenderAll(&rendered, report)
	if lossFree {
		// The run wrote Simulate's archives, so its final report is
		// checked against the batch report directly.
		r.check(bytes.Equal(rendered.Bytes(), r.refReport), "live rep %d: final report differs from the batch report", rep)
		return &ls
	}
	batch, _, err := r.analyzeDir(dir, 0, nil)
	if r.op("analyze live dataset", err) {
		r.check(bytes.Equal(rendered.Bytes(), batch), "live rep %d: final report differs from Analyze over the dataset it wrote", rep)
	}
	return &ls
}

func sameFile(a, b string) bool {
	x, err := os.ReadFile(a)
	if err != nil {
		return false
	}
	y, err := os.ReadFile(b)
	return err == nil && bytes.Equal(x, y)
}
