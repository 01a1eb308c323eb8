// Command bench is the repository's benchmark: one harness, three worlds,
// and on each world the three paths a user runs — batch (simulate,
// analyze, render), glass (an archive replayed into the online analyzer
// behind the looking-glass handler) and live (the loopback BGP/IPFIX
// driver). See README.md in this directory.
//
//	bench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//	bench/run.sh -workload all -seed 1 -out bench/results/pr13.json
//	bench/run.sh -workload all -aa
//
// With a single workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the exit status
// is non-zero when any operation or verification failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/stats"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Repetition policy: the batch and the live path are each repeated at
// least minReps times and then for as long as their share of the
// --seconds budget lasts (counting the timed sections only), so a path
// whose repetition is short gets more of them. The glass path is one
// replay with cutPointCount queries, and set-up is done setupReps times.
const (
	minReps    = 3
	maxReps    = 12
	setupReps  = 3
	batchShare = 0.32 // simulate + analyze + analyze at one worker
	liveShare  = 0.25 // LiveRun.Run
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "paper, flowheavy, escalate, or all (each in its own child process)")
		seed         = flag.Uint64("seed", 1, "input seed: re-draws the sample of the workload's world")
		seconds      = flag.Float64("seconds", 30, "measuring budget of one workload run")
		trace        = flag.Int("trace", 0, "1: run the traced repetition and report the per-layer metrics instead of the end-to-end ones")
		spansOut     = flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON")
		out          = flag.String("out", "", "with -workload all: write every workload's result to this file as JSON")
		aa           = flag.Bool("aa", false, "with -workload all: run the set twice in alternating order and compare the two against the bounds")
		scratch      = flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for the datasets a run writes (removed afterwards)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out, *aa))
	}
	wl, err := workloadByName(*workloadName)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := runOne(wl, *seed, *seconds, *trace == 1, *spansOut, *scratch)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process and reduces its samples.
func runOne(wl workload, seed uint64, seconds float64, traced bool, spansOut, scratch string) (*result, error) {
	root := filepath.Join(scratch, fmt.Sprintf("%s-%d-%d", wl.name, seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	r := newRunner(wl, seed, root, os.Stdout)
	fmt.Printf("workload %s seed %d: %s\n", wl.name, seed, wl.why)
	fmt.Printf("nproc %d, GOMAXPROCS %d (Options.Workers=0), %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Println("loops: batch is a job; glass is one closed-loop client, sequential with ingest;")
	fmt.Println("       live is closed on the control plane (barrier before every inject), open on UDP (unpaced exporter)")

	if !traced {
		r.ref = newRefKernel()
		r.ref.run() // first run pays for page faults
	}

	// Set-up, part one: scratch directory and sizing the world.
	var setupErr error
	for i := 0; i < setupReps; i++ {
		d, k := r.section("setup.size", func() {
			if setupErr = os.MkdirAll(filepath.Join(root, fmt.Sprintf("setup-%d", i)), 0o755); setupErr != nil {
				return
			}
			if r.cfg, setupErr = sizeWorld(wl.build(), wl.records); setupErr == nil {
				r.cfg = resample(r.cfg, seed)
			}
		})
		if setupErr != nil {
			return nil, fmt.Errorf("set-up: %w", setupErr)
		}
		r.addTime("setup.size_s", d, k)
	}
	fmt.Printf("world: plan seed %d, %d days, %d members, %d events, sampling 1:%d, traffic x%g\n",
		r.cfg.Seed, r.cfg.Days, r.cfg.Members, r.cfg.EventsTotal, r.cfg.SamplingRate, r.cfg.Scale())

	if traced {
		r.rec = newRecorder()
		t := &tracer{runner: r}
		t.run()
		t.printBudget()
		if spansOut != "" {
			if err := t.rec.writeSpans(spansOut); err != nil {
				return nil, err
			}
		}
		return r.reduce(perLayer), nil
	}

	begin := time.Now()
	budget := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	// more reports whether a path that has spent `spent` on n repetitions
	// gets another: always below minReps, then while one more fits.
	more := func(spent time.Duration, n int, share float64) bool {
		return n < minReps || spent+spent/time.Duration(n) <= budget(share)
	}
	var batchSpent, liveSpent time.Duration
	var batchReps, liveReps int
	for rep := 0; rep < maxReps; rep++ {
		moreBatch, moreLive := more(batchSpent, batchReps, batchShare), more(liveSpent, liveReps, liveShare)
		if !moreBatch && !moreLive {
			break
		}
		if moreBatch {
			batchSpent += r.batchRep(rep)
			batchReps++
		}
		if rep == 0 && r.refReport != nil {
			// Set-up, part two: the archive loaded into memory for the
			// glass replay, which then runs once.
			var a *archive
			for i := 0; i < setupReps; i++ {
				var err error
				a = nil
				d, k := r.section("setup.load", func() { a, err = loadArchive(r.refDir) })
				if !r.op("load archive", err) {
					break
				}
				r.addTime("setup.load_s", d, k)
			}
			if a != nil {
				r.glassReplay(a)
			}
		}
		if moreLive {
			// The first repetition also renders and verifies the final report.
			if ls := r.liveRep(rep, rep == 0); ls != nil {
				liveSpent += time.Duration(ls.runS * float64(time.Second))
			}
			liveReps++
		}
	}
	if load := r.samples["setup.load_s"]; len(load) > 0 {
		r.raw["setup_s"] = []float64{median(r.raw["setup.size_s"]) + median(r.raw["setup.load_s"])}
		r.samples["setup_s"] = []float64{median(r.samples["setup.size_s"]) + median(load)}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-34s %14.6g %-10s n=1\n", "(layer) proc.peak_rss_mb", rss, "MB")
	fmt.Printf("measured for %.1fs; reference kernel %.1f ms (quartiles %.1f..%.1f, n=%d), nominal %d ms\n",
		time.Since(begin).Seconds(), median(r.refMS), stats.Quantile(r.refMS, 0.25), stats.Quantile(r.refMS, 0.75),
		len(r.refMS), refNominal.Milliseconds())
	if ls := r.samples["live.loss_share"]; len(ls) > 0 {
		fmt.Printf("%-34s %14.6g %-10s n=%d\n", "(layer) live.loss_share", median(ls), "ratio", len(ls))
	}
	return r.reduce(endToEnd), nil
}

// peakRSSMB is the process's ru_maxrss.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// reduce turns the samples of the listed metrics into the result: the
// median of each, printed by name with unit and sample count. A metric
// with no sample (its path failed) reads 0 and the run is not correct.
func (r *runner) reduce(defs []metricDef) *result {
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		xs := r.samples[d.name]
		v := 0.0
		if len(xs) == 0 {
			r.op("metric "+d.name, fmt.Errorf("no sample"))
		} else {
			v = median(xs)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.op("metric "+d.name, fmt.Errorf("not a number"))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(r.out, "%-34s %14.6g %-10s n=%d", d.name, v, d.unit, len(xs))
		if raw := r.raw[d.name]; len(raw) > 0 {
			fmt.Fprintf(r.out, "   (as timed: %.6g)", median(raw))
		}
		if d.moves != "" {
			fmt.Fprintf(r.out, "   moves %s on %s", d.moves, d.on)
		}
		fmt.Fprintln(r.out)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	fmt.Fprintf(r.out, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	return res
}

// child runs one workload in a child process of this binary, so that
// heap and RSS figures are per workload, and returns its parsed result
// line.
func child(name string, seed uint64, seconds float64, trace int, echo io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&stdout, echo), os.Stderr
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("workload %s printed no result (%v)", name, runErr)
	}
	return &res, nil
}

// runAll runs every workload (twice with aa) and prints the summary. It
// returns the process exit status.
func runAll(seed uint64, seconds float64, trace int, out string, aa bool) int {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	passes := [][]workload{workloads}
	if aa {
		reversed := make([]workload, len(workloads))
		for i, w := range workloads {
			reversed[len(workloads)-1-i] = w
		}
		passes = append(passes, reversed)
	}
	status := 0
	results := make([]map[string]*result, len(passes))
	for p, order := range passes {
		results[p] = map[string]*result{}
		for _, w := range order {
			res, err := child(w.name, seed, seconds, trace, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			results[p][w.name] = res
			fmt.Println()
		}
	}

	fmt.Printf("summary, seed %d (nproc %d, GOMAXPROCS %d)\n", seed, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, d := range defs {
		for _, w := range workloads {
			first := results[0][w.name]
			if first == nil {
				continue
			}
			a := first.Metrics[d.name].Value
			if !aa {
				fmt.Printf("%-34s %-10s %14.6g %s\n", d.name, w.name, a, d.unit)
				continue
			}
			second := results[1][w.name]
			if second == nil {
				continue
			}
			b := second.Metrics[d.name].Value
			diff := 0.0
			if a != 0 {
				diff = math.Abs(b-a) / math.Abs(a)
			}
			verdict := ""
			if d.bound > 0 && diff > d.bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-34s %-10s %14.6g %14.6g %-10s diff %5.1f%%  bound %4.0f%%%s\n",
				d.name, w.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
		}
	}
	for p := range results {
		for _, w := range workloads {
			if res := results[p][w.name]; res != nil {
				fmt.Printf("pass %d %-10s operations: %d attempted, %d failed\n", p+1, w.name, res.Attempted, res.Failed)
			}
		}
	}
	if out != "" {
		doc := map[string]any{
			"seed": seed, "seconds": seconds, "trace": trace,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"passes": results,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.MkdirAll(filepath.Dir(out), 0o755)
		}
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", out, err)
			status = 1
		}
	}
	return status
}
