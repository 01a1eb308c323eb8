package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/stats"
)

// call is one Executor call as the executor saw it: a control message's
// UPDATE as wire bytes, a batch as seen.
type call struct {
	control bool
	ts      int64
	peer    uint32
	msg     string
	batch   seen
}

func (c call) String() string {
	if c.control {
		return fmt.Sprintf("control at %d from %d: % x", c.ts, c.peer, c.msg)
	}
	return fmt.Sprintf("inject %+v", c.batch)
}

// seen is a batch with its hooks replaced by what they returned.
type seen struct {
	Time                  time.Time
	Duration              time.Duration
	IngressAS, EgressAS   uint32
	SrcIP, DstIP          uint32
	SrcPort, DstPort      uint16
	Proto                 uint8
	PacketSize            int
	Packets               int64
	Internal              bool
	BilateralDropFraction float64
	Owner                 uint32
	FixedSrcPort          bool
	hooks                 [2]bool
	ports                 [2]uint16
	srcIP                 uint32
}

// batchFields is how many fields fabric.Batch has; seen copies them all.
const batchFields = 17

// recorder is an Executor that records every call and fails the call
// numbered failAt (from 0) with errFail; failAt < 0 never fails. The
// hooks of every batch draw from one stream seeded alike on every walk.
type recorder struct {
	calls  []call
	failAt int
	hooks  *stats.RNG
}

var errFail = errors.New("executor fails")

func (r *recorder) add(c call) error {
	r.calls = append(r.calls, c)
	if len(r.calls)-1 == r.failAt {
		return errFail
	}
	return nil
}

func (r *recorder) Control(ts time.Time, peerAS uint32, upd *bgp.Update) error {
	msg, err := bgp.EncodeUpdate(upd)
	if err != nil {
		return err
	}
	return r.add(call{control: true, ts: ts.UnixNano(), peer: peerAS, msg: string(msg)})
}

func (r *recorder) Inject(b *fabric.Batch) error {
	s := seen{
		Time: b.Time, Duration: b.Duration,
		IngressAS: b.IngressAS, EgressAS: b.EgressAS, SrcIP: b.SrcIP, DstIP: b.DstIP,
		SrcPort: b.SrcPort, DstPort: b.DstPort, Proto: b.Proto,
		PacketSize: b.PacketSize, Packets: b.Packets, Internal: b.Internal,
		BilateralDropFraction: b.BilateralDropFraction, Owner: b.Owner, FixedSrcPort: b.FixedSrcPort,
		hooks: [2]bool{b.VaryPorts != nil, b.VarySrcIP != nil},
	}
	if b.VaryPorts != nil {
		s.ports[0], s.ports[1] = b.VaryPorts(r.hooks)
	}
	if b.VarySrcIP != nil {
		s.srcIP = b.VarySrcIP(r.hooks)
	}
	return r.add(call{ts: b.Time.UnixNano(), batch: s})
}

// walk runs drive over w with one recorder per exchange of w's
// federation, each failing at failAt.
func walk(w *World, failAt int,
	drive func(*World, func(*stats.RNG) (Executor, error)) (*DriveStats, error)) ([]*recorder, *DriveStats, error) {
	fed := PlanFederation(w)
	recs := make([]*recorder, fed.N)
	exs := make([]Executor, fed.N)
	for i := range recs {
		recs[i] = &recorder{failAt: failAt, hooks: stats.NewRNG(7)}
		exs[i] = recs[i]
	}
	st, err := drive(w, func(*stats.RNG) (Executor, error) { return fed.Route(exs), nil })
	return recs, st, err
}

// sameWalk compares two walks' calls, exchange by exchange, and their
// stats apart from the pipeline's wait times.
func sameWalk(t *testing.T, name string, got, want []*recorder, gotSt, wantSt *DriveStats) {
	t.Helper()
	for x := range want {
		g, w := got[x].calls, want[x].calls
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s: exchange %d call %d\n got %v\nwant %v", name, x, i, g[i], w[i])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("%s: exchange %d got %d calls, the serial walk made %d", name, x, len(g), len(w))
		}
	}
	if gotSt == nil || wantSt == nil {
		t.Fatalf("%s: stats %v, the serial walk's %v", name, gotSt, wantSt)
	}
	g := *gotSt
	g.DispatchWait, g.GenerateWait = 0, 0
	if g != *wantSt {
		t.Fatalf("%s: stats %+v, the serial walk's %+v", name, g, *wantSt)
	}
}

// settledGoroutines waits briefly for the goroutine count to drop to at
// most base and returns it: a goroutine that has signalled its end may
// not have exited yet.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// driveWorlds are the worlds the pipeline is held to the serial walk on.
func driveWorlds(t *testing.T) map[string]*World {
	t.Helper()
	worlds := map[string]*World{}
	for name, edit := range map[string]func(*Config){
		"test":     func(*Config) {},
		"escalate": func(c *Config) { c.MitigationPolicy = "escalate" },
		"3 IXPs":   func(c *Config) { c.IXPs = 3 },
	} {
		cfg := TestConfig()
		edit(&cfg)
		w, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		worlds[name] = w
	}
	return worlds
}

// TestDriveMatchesSequential holds the pipelined Drive to the serial walk
// it replaced: the same executor calls in the same order with the same
// arguments — UPDATE bytes, every batch field, what the batch hooks
// return — and the same stats. Its two wait times lie inside its wall
// time.
func TestDriveMatchesSequential(t *testing.T) {
	if n := reflect.TypeFor[fabric.Batch]().NumField(); n != batchFields {
		t.Fatalf("fabric.Batch has %d fields, the recorder copies %d", n, batchFields)
	}
	for name, w := range driveWorlds(t) {
		want, wantSt, err := walk(w, -1, driveSequential)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		got, gotSt, err := walk(w, -1, Drive)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		sameWalk(t, name, got, want, gotSt, wantSt)
		calls := 0
		for _, r := range want {
			calls += len(r.calls)
		}
		if calls < 100_000 || wantSt.SplitSegments == 0 || wantSt.MaxDayBatches <= 1<<blockBits {
			t.Fatalf("%s: %d calls, %d split segments, at most %d batches a day: too small a world to tell",
				name, calls, wantSt.SplitSegments, wantSt.MaxDayBatches)
		}
		for _, wait := range []time.Duration{gotSt.DispatchWait, gotSt.GenerateWait} {
			if wait < 0 || wait > wall {
				t.Errorf("%s: waits %v for a day and %v for a buffer in a %v Drive",
					name, gotSt.DispatchWait, gotSt.GenerateWait, wall)
			}
		}
	}
}

// TestDriveFailureMatchesSequential fails the executor at the first
// control message, the first batch, mid-day and the first call of the
// last day, and breaks one FlowSpec rule so that building its UPDATE
// fails: each time Drive returns what the serial walk returns — the same
// error after the same calls, and the stats of the days dispatched — and
// leaves no goroutine behind.
func TestDriveFailureMatchesSequential(t *testing.T) {
	// The escalating test world cut to 8 days, its event budgets with it.
	cfg := TestConfig()
	cfg.EventsTotal = cfg.EventsTotal * 8 / cfg.Days
	cfg.UniqueVictims = cfg.UniqueVictims * 8 / cfg.Days
	cfg.Days = 8
	cfg.MitigationPolicy = "escalate"
	w, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := walk(w, -1, driveSequential)
	if err != nil {
		t.Fatal(err)
	}
	calls := full[0].calls
	// dayStart[d] is the index of day d's first call.
	dayStart := make([]int, cfg.Days+1)
	for d := 1; d <= cfg.Days; d++ {
		next := w.Cfg.Start.AddDate(0, 0, d).UnixNano()
		dayStart[d] = dayStart[d-1]
		for dayStart[d] < len(calls) && (d == cfg.Days || calls[dayStart[d]].ts < next) {
			dayStart[d]++
		}
	}
	firstControl, firstInject := -1, -1
	for i := len(calls) - 1; i >= 0; i-- {
		if calls[i].control {
			firstControl = i
		} else {
			firstInject = i
		}
	}
	mid := cfg.Days / 2
	cases := map[string]int{
		"first control":     firstControl,
		"first inject":      firstInject,
		"mid-day":           (dayStart[mid] + dayStart[mid+1]) / 2,
		"first of last day": dayStart[cfg.Days-1],
		"last call":         len(calls) - 1,
	}
	base := runtime.NumGoroutine()
	for name, k := range cases {
		want, wantSt, wantErr := walk(w, k, driveSequential)
		got, gotSt, gotErr := walk(w, k, Drive)
		if wantErr != errFail || gotErr != errFail {
			t.Fatalf("%s: error %v, the serial walk's %v", name, gotErr, wantErr)
		}
		sameWalk(t, name, got, want, gotSt, wantSt)
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after Drive, %d before", name, n, base)
		}
	}

	// An UPDATE that cannot be built stops the walk when dispatch reaches
	// it, after every earlier action, whatever was generated ahead.
	broken := false
	for _, e := range w.Events {
		if e.FlowSpec != nil && w.Cfg.Start.AddDate(0, 0, mid).Before(e.FlowSpec.Start) {
			rule := *e.FlowSpec.Rule
			rule.HasDst, rule.Dst.Len = true, 33
			e.FlowSpec.Rule = &rule
			broken = true
			break
		}
	}
	if !broken {
		t.Fatal("no FlowSpec event after mid-run to break")
	}
	want, wantSt, wantErr := walk(w, -1, driveSequential)
	got, gotSt, gotErr := walk(w, -1, Drive)
	if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("broken rule: error %v, the serial walk's %v", gotErr, wantErr)
	}
	sameWalk(t, "broken rule", got, want, gotSt, wantSt)
	if len(want[0].calls) < dayStart[mid] {
		t.Fatalf("broken rule: the walk stopped after %d calls, before day %d", len(want[0].calls), mid)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("broken rule: %d goroutines after Drive, %d before", n, base)
	}
}
