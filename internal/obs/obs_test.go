package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per || g.Value() != workers*per {
		t.Fatalf("counter=%d gauge=%d, want %d", c.Value(), g.Value(), workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 10, 11, 100, 5000, -7} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	wantBounds := []int64{10, 100, 1000, math.MaxInt64}
	wantCounts := []int64{3, 2, 0, 1} // -7,1,10 | 11,100 | — | 5000
	if len(bounds) != len(wantBounds) || len(counts) != len(wantCounts) {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || counts[i] != wantCounts[i] {
			t.Fatalf("bucket %d: bound=%d count=%d, want bound=%d count=%d",
				i, bounds[i], counts[i], wantBounds[i], wantCounts[i])
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+100+5000-7 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestTimerSpans(t *testing.T) {
	var tm Timer
	tm.Observe(5 * time.Millisecond)
	tm.Observe(2 * time.Millisecond)
	tm.Observe(9 * time.Millisecond)
	if tm.CountSpans() != 3 {
		t.Fatalf("spans = %d, want 3", tm.CountSpans())
	}
	if tm.Total() != 16*time.Millisecond {
		t.Fatalf("total = %v", tm.Total())
	}
	if tm.Min() != 2*time.Millisecond || tm.Max() != 9*time.Millisecond {
		t.Fatalf("min=%v max=%v", tm.Min(), tm.Max())
	}

	var tm2 Timer
	sp := tm2.Start()
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	if tm2.CountSpans() != 1 || tm2.Total() <= 0 {
		t.Fatalf("spans=%d total=%v", tm2.CountSpans(), tm2.Total())
	}
}

func TestTimerConcurrentMinMax(t *testing.T) {
	var tm Timer
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm.Observe(time.Duration(i) * time.Microsecond)
		}(i)
	}
	wg.Wait()
	if tm.Min() != time.Microsecond || tm.Max() != 64*time.Microsecond {
		t.Fatalf("min=%v max=%v, want 1µs/64µs", tm.Min(), tm.Max())
	}
}

func TestRegistrySnapshotStableJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.Gauge("z.gauge").Set(-4)
	reg.GaugeFunc("y.fn", func() int64 { return 99 })
	reg.Histogram("h.lat", 10, 100).Observe(50)
	reg.Timer("t.stage").Observe(3 * time.Millisecond)

	snap := reg.Snapshot()
	if snap.Counter("a.count") != 1 || snap.Counter("b.count") != 2 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if snap.Gauge("z.gauge") != -4 || snap.Gauge("y.fn") != 99 {
		t.Fatalf("gauges: %+v", snap.Gauges)
	}
	if !snap.Has("h.lat") || !snap.Has("t.stage") || snap.Has("nope") {
		t.Fatal("Has misreports membership")
	}

	var buf1, buf2 bytes.Buffer
	if err := snap.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("snapshot JSON is not stable:\n%s\nvs\n%s", buf1.Bytes(), buf2.Bytes())
	}
	// The JSON must parse back into an equivalent snapshot.
	var back Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("b.count") != 2 || back.Gauges["y.fn"] != 99 {
		t.Fatalf("round-tripped snapshot: %+v", back)
	}
	// Counter names serialize in sorted order (stability is key order).
	ai := bytes.Index(buf1.Bytes(), []byte(`"a.count"`))
	bi := bytes.Index(buf1.Bytes(), []byte(`"b.count"`))
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("counter keys not sorted: a@%d b@%d", ai, bi)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fabric.packets_in").Add(1000)
	reg.Gauge("routeserver.rib_routes").Set(7)
	reg.Histogram("pipeline.batch", 8).Observe(3)
	reg.Timer("pipeline.pass1").Observe(time.Second)

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter", "fabric.packets_in", "1000",
		"gauge", "routeserver.rib_routes",
		"histogram", "le+inf",
		"timer", "pipeline.pass1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Counter("dup")
}
