package rtbh_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	rtbh "repro"
	"repro/internal/ipfix"
	"repro/internal/serve"
)

// BenchmarkServeSnapshot measures the looking-glass request path at two
// stream lengths: the cached path (requests ride the TTL cache and
// share one immutable report) against the cold path (?maxAge=0, a full
// copy-on-snapshot compose per request). The cache turns a
// compose-bound query into a JSON-encode-bound one, so the cached
// queries/s figure should sit orders of magnitude above the cold one —
// that gap is the whole point of the serving layer (EXPERIMENTS.md,
// "Serving layer throughput").
func BenchmarkServeSnapshot(b *testing.B) {
	for _, days := range []int{14, 28} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			benchServeSnapshot(b, days)
		})
	}
}

func benchServeSnapshot(b *testing.B, days int) {
	cfg := rtbh.TestConfig()
	cfg.Days = days
	cfg.EventsTotal = 300
	cfg.UniqueVictims = 150
	cfg.Members = 60
	cfg.RTBHUsers = 12
	cfg.VictimOriginASes = 16
	cfg.RemoteOriginASes = 200
	dir, err := os.MkdirTemp("", "rtbh-serve-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := rtbh.Simulate(cfg, dir); err != nil {
		b.Fatal(err)
	}
	ds, err := rtbh.OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	opts := rtbh.DefaultOptions()
	opts.SweepDeltas = nil
	opts.OffsetStep = 100 * time.Millisecond
	opts.Workers = 1

	a := rtbh.NewOnlineAnalyzer(ds.Meta)
	for i := range ds.Updates {
		a.ObserveControl(ds.Updates[i])
	}
	if err := ds.EachFlowBatch(func(b *ipfix.RecordBatch) error { a.ObserveFlowBatch(b); return nil }); err != nil {
		b.Fatal(err)
	}

	srv, err := serve.New(serve.Config{Source: a, Options: opts, MaxAge: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()

	query := func(b *testing.B, path string) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("GET %s: status %d", path, rr.Code)
		}
	}
	query(b, "/api/summary") // warm the cache and seal everything eligible

	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query(b, "/api/summary")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			query(b, "/api/summary?maxAge=0")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}
