package cliutil

import (
	"cmp"
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestCheckWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		if err := CheckWorkers(n); err != nil {
			t.Errorf("CheckWorkers(%d) = %v, want nil", n, err)
		}
	}
	if err := CheckWorkers(-1); err == nil {
		t.Error("CheckWorkers(-1) accepted")
	}
}

func TestCheckDays(t *testing.T) {
	if err := CheckDays(0); err != nil {
		t.Errorf("CheckDays(0) = %v", err)
	}
	if err := CheckDays(-7); err == nil {
		t.Error("CheckDays(-7) accepted")
	}
}

// TestWithDays pins what -days means: a shorter period keeps the world's
// event density instead of packing the whole budget into fewer days.
func TestWithDays(t *testing.T) {
	paper, err := WorldConfig("50")
	if err != nil {
		t.Fatal(err)
	}
	if got := WithDays(paper, 0); got != paper {
		t.Errorf("WithDays(cfg, 0) changed the world: %+v", got)
	}
	short := WithDays(paper, 14)
	if short.Days != 14 {
		t.Fatalf("Days = %d, want 14", short.Days)
	}
	perDay := func(c scenario.Config) (events, victims float64) {
		return float64(c.EventsTotal) / float64(c.Days), float64(c.UniqueVictims) / float64(c.Days)
	}
	fullE, fullV := perDay(paper)
	shortE, shortV := perDay(short)
	if math.Abs(shortE-fullE) > 1 || math.Abs(shortV-fullV) > 1 {
		t.Errorf("-scale 50 -days 14: %.1f events/day and %.1f victims/day, the 104-day world has %.1f and %.1f",
			shortE, shortV, fullE, fullV)
	}
	short.EventsTotal, short.UniqueVictims, short.Days = paper.EventsTotal, paper.UniqueVictims, paper.Days
	if short != paper {
		t.Errorf("WithDays touched more than the period and its budgets: %+v", short)
	}
	if err := short.Validate(); err != nil {
		t.Errorf("-scale 50 -days 14 does not validate: %v", err)
	}
	// The shortest period the scenario accepts still validates on the
	// smallest world, and one day less is still rejected.
	shortest := WithDays(scenario.TestConfig(), 4)
	if err := shortest.Validate(); err != nil {
		t.Errorf("-scale test -days 4 does not validate: %v", err)
	}
	if under := WithDays(scenario.TestConfig(), 3); under.Validate() == nil {
		t.Error("-scale test -days 3 validates")
	}
	// A longer period scales the budgets up the same way.
	if long := WithDays(scenario.TestConfig(), 60); long.EventsTotal != 1800 || long.UniqueVictims != 900 {
		t.Errorf("-scale test -days 60: %d events, %d victims, want 1800 and 900", long.EventsTotal, long.UniqueVictims)
	}
}

func TestCheckIXPs(t *testing.T) {
	for _, n := range []int{1, 2, 16} {
		if err := CheckIXPs(n); err != nil {
			t.Errorf("CheckIXPs(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -3} {
		if err := CheckIXPs(n); err == nil {
			t.Errorf("CheckIXPs(%d) accepted", n)
		}
	}
}

// TestWorldFlags pins the shared world flags to what rtbh-sim and
// rtbh-live each did by hand before: the two binaries applied the same six
// flags to the -scale world in two different orders, and every flag alone,
// and all of them together, must give the Config either order gave — and
// every usage error its text.
func TestWorldFlags(t *testing.T) {
	parse := func(args []string) (*WorldFlags, scenario.Config, error) {
		fs := flag.NewFlagSet("world", flag.ContinueOnError)
		f := RegisterWorldFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg, err := f.Config()
		return f, cfg, err
	}
	apply := map[string]func(c *scenario.Config, f *WorldFlags){
		"seed":          func(c *scenario.Config, f *WorldFlags) { c.Seed = cmp.Or(f.Seed, c.Seed) },
		"days":          func(c *scenario.Config, f *WorldFlags) { *c = WithDays(*c, f.Days) },
		"traffic-scale": func(c *scenario.Config, f *WorldFlags) { c.TrafficScale = cmp.Or(f.TrafficScale, c.TrafficScale) },
		"mitigation":    func(c *scenario.Config, f *WorldFlags) { c.MitigationPolicy = f.Mitigation },
		"ixps": func(c *scenario.Config, f *WorldFlags) {
			if f.IXPs > 1 {
				c.IXPs = f.IXPs
			}
		},
	}
	orders := map[string][]string{
		"rtbh-sim":  {"seed", "days", "traffic-scale", "mitigation", "ixps"},
		"rtbh-live": {"traffic-scale", "seed", "days", "ixps", "mitigation"},
	}
	for _, args := range [][]string{
		{}, {"-scale", "bench"}, {"-scale", "50"}, {"-traffic-scale", "2.5"}, {"-seed", "7"},
		{"-days", "5"}, {"-mitigation", "escalate"}, {"-ixps", "3"}, {"-ixps", "1"},
		{"-scale", "full", "-traffic-scale", "3", "-seed", "9", "-days", "14", "-mitigation", "mixed", "-ixps", "2"},
	} {
		f, got, err := parse(args)
		if err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		for bin, order := range orders {
			want, _ := WorldConfig(f.Scale)
			for _, name := range order {
				apply[name](&want, f)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: Config differs from what %s built:\n got %+v\nwant %+v", args, bin, got, want)
			}
		}
	}
	for _, tc := range []struct{ flag, val, want string }{
		{"-scale", "bogus", `-scale must be test, bench, full, or a positive traffic multiplier (e.g. 50), got "bogus"`},
		{"-days", "-1", "-days must be >= 0 (0 keeps the scale default), got -1"},
		{"-traffic-scale", "-2", "scenario: TrafficScale must be finite and >= 0 (0 means 1), got -2"},
		{"-traffic-scale", "NaN", "scenario: TrafficScale must be finite and >= 0 (0 means 1), got NaN"},
		{"-ixps", "0", "-ixps must be >= 1, got 0"},
		{"-mitigation", "bogus", `scenario: MitigationPolicy must be one of rtbh, flowspec, escalate, mixed; got "bogus"`},
	} {
		if _, _, err := parse([]string{tc.flag, tc.val}); err == nil || err.Error() != tc.want {
			t.Errorf("%s %s: err = %v, want %s", tc.flag, tc.val, err, tc.want)
		}
	}
}

func TestCheckSnapshotEvery(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, time.Second, time.Hour} {
		if err := CheckSnapshotEvery(d); err != nil {
			t.Errorf("CheckSnapshotEvery(%v) = %v, want nil", d, err)
		}
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if err := CheckSnapshotEvery(d); err == nil {
			t.Errorf("CheckSnapshotEvery(%v) accepted", d)
		}
	}
}

func TestCheckServeAddr(t *testing.T) {
	for _, addr := range []string{":8080", "localhost:8080", "127.0.0.1:0", "[::1]:9000"} {
		if err := CheckServeAddr(addr); err != nil {
			t.Errorf("CheckServeAddr(%q) = %v, want nil", addr, err)
		}
	}
	for _, addr := range []string{"", "8080", "localhost", "host:port:extra"} {
		if err := CheckServeAddr(addr); err == nil {
			t.Errorf("CheckServeAddr(%q) accepted", addr)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, name := range []string{"test", "bench", "full"} {
		world, ts, err := ParseScale(name)
		if err != nil || world != name || ts != 0 {
			t.Errorf("ParseScale(%q) = (%q, %g, %v), want (%q, 0, nil)", name, world, ts, err, name)
		}
	}
	world, ts, err := ParseScale("50")
	if err != nil || world != "full" || ts != 50 {
		t.Errorf(`ParseScale("50") = (%q, %g, %v), want ("full", 50, nil)`, world, ts, err)
	}
	if _, ts, err := ParseScale("2.5"); err != nil || ts != 2.5 {
		t.Errorf(`ParseScale("2.5") = (%g, %v), want 2.5`, ts, err)
	}
	for _, bad := range []string{"", "huge", "0", "-3", "Inf", "NaN"} {
		if _, _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted", bad)
		}
	}
}

func TestWorldConfig(t *testing.T) {
	for spec, want := range map[string]scenario.Config{
		"test":  scenario.TestConfig(),
		"bench": scenario.BenchConfig(),
		"full":  scenario.DefaultConfig(),
	} {
		got, err := WorldConfig(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("WorldConfig(%q) = (%+v, %v), want the %s configuration untouched", spec, got, err, spec)
		}
	}
	// A numeric scale is the full world with traffic and sampling
	// denominator multiplied alike.
	full := scenario.DefaultConfig()
	got, err := WorldConfig("50")
	if err != nil || got.TrafficScale != 50 || got.SamplingRate != 50*full.SamplingRate || got.Days != full.Days {
		t.Errorf(`WorldConfig("50") = traffic x%g, sampling 1:%d, %d days (%v), want x50, 1:%d, %d days`,
			got.TrafficScale, got.SamplingRate, got.Days, err, 50*full.SamplingRate, full.Days)
	}
	if _, err := WorldConfig("huge"); err == nil {
		t.Error(`WorldConfig("huge") accepted`)
	}
}

func TestCheckLiveModes(t *testing.T) {
	for _, c := range []struct {
		ixps                 int
		serve, snapshotChaos bool
		wantFlag             string // "" = accepted
	}{
		{1, false, false, ""},
		{1, true, false, ""},
		{3, false, false, ""},
		{3, false, true, ""},
		{3, true, false, "-serve"},
		{3, true, true, "-serve"},
		{1, false, true, "-snapshot-chaos-profile"},
		{1, true, true, "-snapshot-chaos-profile"},
	} {
		err := CheckLiveModes(c.ixps, c.serve, c.snapshotChaos)
		switch {
		case c.wantFlag == "" && err != nil:
			t.Errorf("CheckLiveModes(%d, %v, %v) = %v, want nil", c.ixps, c.serve, c.snapshotChaos, err)
		case c.wantFlag != "" && err == nil:
			t.Errorf("CheckLiveModes(%d, %v, %v) accepted", c.ixps, c.serve, c.snapshotChaos)
		case c.wantFlag != "" && !strings.HasPrefix(err.Error(), c.wantFlag+" "):
			t.Errorf("CheckLiveModes(%d, %v, %v) error %q does not start with %s",
				c.ixps, c.serve, c.snapshotChaos, err, c.wantFlag)
		}
	}
}

func TestCheckRunIDs(t *testing.T) {
	known := []string{"fig2", "fig5", "table3"}

	if ids, err := CheckRunIDs("all", known); err != nil || ids != nil {
		t.Errorf("all: ids=%v err=%v", ids, err)
	}
	ids, err := CheckRunIDs(" fig5 ,fig2", known)
	if err != nil || len(ids) != 2 || ids[0] != "fig5" || ids[1] != "fig2" {
		t.Errorf("valid list: ids=%v err=%v", ids, err)
	}
	_, err = CheckRunIDs("fig2,fig99", known)
	if err == nil || !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "fig2, fig5, table3") {
		t.Errorf("unknown id: err = %v", err)
	}
	if _, err := CheckRunIDs(",,", known); err == nil {
		t.Error("empty selection accepted")
	}
}
