// Package benchgate turns the CI benchmark run from an archive into a
// gate. It parses the `go test -json -bench` stream, extracts the
// headline series the batch path is accountable for (records/s and
// allocs/record), and compares throughput against a checked-in baseline:
// a drop of more than the configured regression budget fails the build.
//
// The baseline intentionally pins the PRE-batch-path throughput (the
// record-at-a-time pipeline measured ~630k records/s on the reference
// machine). The batch path runs 2-2.7x that, so the 20% budget below the
// OLD number is machine-speed slack, while any change that silently
// reverts the batch contract lands at or below the old figure and trips
// the gate even on a slower runner.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed measurement line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkOnlineSnapshot/incremental".
	Name string `json:"name"`
	// Iterations is the b.N the line reports.
	Iterations int `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the
	// line ("ns/op", "records/s", "allocs/record", ...).
	Metrics map[string]float64 `json:"metrics"`
}

// testEvent is the subset of the `go test -json` event stream we need.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// ParseGoTestJSON reads a `go test -json` stream and returns every
// benchmark measurement line found in the output events, in order.
//
// Benchmark output arrives split across events: the runner flushes the
// name ("BenchmarkFoo \t") before timing and the measurement fields
// only after, so the two land in separate Output events. Partial lines
// (no trailing newline) are therefore buffered per package/test until
// the line completes.
func ParseGoTestJSON(r io.Reader) ([]Result, error) {
	var out []Result
	partial := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// Tolerate non-JSON noise (tee'd warnings, build output).
			continue
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "\x00" + ev.Test
		text := partial[key] + ev.Output
		if !strings.HasSuffix(text, "\n") {
			partial[key] = text
			continue
		}
		delete(partial, key)
		for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if res, ok := parseBenchLine(l); ok {
				out = append(out, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading go test -json stream: %w", err)
	}
	return out, nil
}

// parseBenchLine parses a single benchmark measurement line of the form
//
//	BenchmarkName-8   12   98.7 ns/op   1684012 records/s
//
// returning ok=false for anything else.
func parseBenchLine(s string) (Result, bool) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: stripProcs(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return Result{}, false
	}
	return res, true
}

// stripProcs removes the trailing -GOMAXPROCS marker go test appends to
// benchmark names ("BenchmarkFoo/sub-8" -> "BenchmarkFoo/sub").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Baseline is the checked-in throughput contract.
type Baseline struct {
	// MaxRegression is the tolerated fractional throughput drop below
	// each baseline figure (0.20 = fail below 80% of baseline).
	MaxRegression float64 `json:"max_regression"`
	// MaxAllocsPerRecord caps the allocs/record metric wherever a gated
	// benchmark reports it (0 disables the cap).
	MaxAllocsPerRecord float64 `json:"max_allocs_per_record"`
	// RecordsPerSec maps benchmark name -> baseline records/s.
	RecordsPerSec map[string]float64 `json:"records_per_sec"`
}

// ReadBaseline parses a baseline JSON document.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var bl Baseline
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bl); err != nil {
		return Baseline{}, fmt.Errorf("parsing baseline: %w", err)
	}
	if bl.MaxRegression <= 0 || bl.MaxRegression >= 1 {
		return Baseline{}, fmt.Errorf("baseline max_regression must be in (0,1), got %g", bl.MaxRegression)
	}
	if len(bl.RecordsPerSec) == 0 {
		return Baseline{}, fmt.Errorf("baseline gates no benchmarks (records_per_sec is empty)")
	}
	return bl, nil
}

// Check compares the parsed results against the baseline and returns one
// human-readable failure per violated gate (empty = pass). A gated
// benchmark that is missing from the run is a failure: a silently
// deleted benchmark must not green the gate.
func Check(results []Result, bl Baseline) []string {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		if _, dup := byName[r.Name]; !dup {
			byName[r.Name] = r
		}
	}
	names := make([]string, 0, len(bl.RecordsPerSec))
	for name := range bl.RecordsPerSec {
		names = append(names, name)
	}
	sort.Strings(names)
	var fails []string
	for _, name := range names {
		base := bl.RecordsPerSec[name]
		res, ok := byName[name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: gated benchmark missing from the run", name))
			continue
		}
		got, ok := res.Metrics["records/s"]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: no records/s metric reported", name))
			continue
		}
		if floor := base * (1 - bl.MaxRegression); got < floor {
			fails = append(fails, fmt.Sprintf("%s: %.0f records/s is below the regression floor %.0f (baseline %.0f, budget %g%%)",
				name, got, floor, base, bl.MaxRegression*100))
		}
		if bl.MaxAllocsPerRecord > 0 {
			if allocs, ok := res.Metrics["allocs/record"]; ok && allocs > bl.MaxAllocsPerRecord {
				fails = append(fails, fmt.Sprintf("%s: %.2f allocs/record exceeds the cap %.2f",
					name, allocs, bl.MaxAllocsPerRecord))
			}
		}
	}
	return fails
}

// Headline filters the results to the batch-path accountability series:
// every benchmark that reports records/s or allocs/record.
func Headline(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if _, ok := r.Metrics["records/s"]; ok {
			out = append(out, r)
			continue
		}
		if _, ok := r.Metrics["allocs/record"]; ok {
			out = append(out, r)
		}
	}
	return out
}

// WriteHeadline renders the headline series as a stable JSON array.
func WriteHeadline(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Headline(results))
}
