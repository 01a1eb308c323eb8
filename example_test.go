package rtbh_test

import (
	"fmt"
	"log"
	"os"

	rtbh "repro"
	"repro/internal/ipfix"
)

// Example demonstrates the complete workflow: simulate a miniature IXP
// world, open the resulting dataset the way an analyst would, and run the
// paper's full pipeline.
func Example() {
	dir, err := os.MkdirTemp("", "rtbh-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := rtbh.TestConfig()
	cfg.Days = 6
	cfg.EventsTotal = 80
	cfg.UniqueVictims = 40
	cfg.Members = 40
	cfg.RTBHUsers = 8
	cfg.VictimOriginASes = 10
	cfg.RemoteOriginASes = 100

	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		log.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	report, err := ds.Analyze(rtbh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Everything is deterministic: same seed, same numbers.
	off := report.Fig2.BestOffset.Milliseconds()
	fmt.Printf("events reconstructed: %v\n", len(report.Events) > 0)
	fmt.Printf("clock offset near +40ms: %v\n", off > 0 && off < 100)
	// Output:
	// events reconstructed: true
	// clock offset near +40ms: true
}

// ExampleOnlineAnalyzer feeds the measurement streams update by update
// and batch by batch — the way live mode delivers them — takes a partial
// snapshot mid-stream,
// and shows that the final online report matches the batch analysis of
// the same archive. Snapshots stay cheap regardless of stream length:
// records behind the seal horizon are folded into compact operator state
// and released (see DESIGN.md, "Incremental analysis").
func ExampleOnlineAnalyzer() {
	dir, err := os.MkdirTemp("", "rtbh-online-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := rtbh.TestConfig()
	cfg.Days = 6
	cfg.EventsTotal = 80
	cfg.UniqueVictims = 40
	cfg.Members = 40
	cfg.RTBHUsers = 8
	cfg.VictimOriginASes = 10
	cfg.RemoteOriginASes = 100
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		log.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}

	opts := rtbh.DefaultOptions()
	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	for _, u := range ds.Updates {
		a.ObserveControl(u)
	}
	flows, snapped := 0, false
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error {
		a.ObserveFlowBatch(b)
		flows += b.Len()
		if flows >= 5000 && !snapped { // mid-stream: snapshot without stopping ingest
			snapped = true
			partial, err := a.Snapshot(opts)
			if err != nil {
				return err
			}
			fmt.Printf("partial snapshot covers the records fed so far: %v\n",
				partial.TotalRecords == int64(flows))
			fmt.Printf("partial snapshot has events: %v\n", len(partial.Events) > 0)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	final, err := a.Final(opts)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := ds.Analyze(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final == batch: %v\n",
		final.TotalRecords == batch.TotalRecords &&
			final.AttributedRecords == batch.AttributedRecords &&
			len(final.Events) == len(batch.Events))
	// Output:
	// partial snapshot covers the records fed so far: true
	// partial snapshot has events: true
	// final == batch: true
}
