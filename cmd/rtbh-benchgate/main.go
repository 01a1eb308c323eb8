// Command rtbh-benchgate gates CI on benchmark throughput. It parses a
// `go test -json -bench` stream, prints the headline series (records/s
// and allocs/record for the batch-path benchmarks), and exits non-zero
// if any benchmark gated by the checked-in baseline regressed past the
// budget.
//
// Usage:
//
//	rtbh-benchgate -in BENCH.json -baseline bench_baseline.json \
//	               [-headline BENCH_headline.json]
//
// "-" for -in reads the stream from stdin, so the gate can also sit at
// the end of a pipe: go test -json -bench=. ./... | rtbh-benchgate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchgate"
)

func main() {
	in := flag.String("in", "-", `go test -json stream to gate ("-" = stdin)`)
	baselinePath := flag.String("baseline", "bench_baseline.json", "checked-in throughput baseline")
	headlineOut := flag.String("headline", "", "also write the headline series as JSON to this path")
	flag.Parse()

	if err := run(*in, *baselinePath, *headlineOut); err != nil {
		fmt.Fprintf(os.Stderr, "rtbh-benchgate: %v\n", err)
		os.Exit(1)
	}
}

func run(in, baselinePath, headlineOut string) error {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	results, err := benchgate.ParseGoTestJSON(src)
	if err != nil {
		return err
	}

	bf, err := os.Open(baselinePath)
	if err != nil {
		return err
	}
	bl, err := benchgate.ReadBaseline(bf)
	bf.Close()
	if err != nil {
		return err
	}

	head := benchgate.Headline(results)
	if len(head) == 0 {
		return fmt.Errorf("no records/s benchmarks in the stream (did the bench step run?)")
	}
	fmt.Println("headline series:")
	for _, r := range head {
		fmt.Printf("  %-45s %12.0f records/s  %8.2f allocs/record\n",
			r.Name, r.Metrics["records/s"], r.Metrics["allocs/record"])
	}
	if headlineOut != "" {
		f, err := os.Create(headlineOut)
		if err != nil {
			return err
		}
		if err := benchgate.WriteHeadline(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if fails := benchgate.Check(results, bl); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		return fmt.Errorf("%d benchmark gate(s) failed", len(fails))
	}
	fmt.Printf("bench gate passed: %d benchmark(s) within %g%% of baseline\n",
		len(bl.RecordsPerSec), bl.MaxRegression*100)
	return nil
}
