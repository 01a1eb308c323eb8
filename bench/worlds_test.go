package main

import (
	"testing"

	rtbh "repro"
)

// The paper world is the 104-day world cut short, not the 104-day world
// squeezed: its events per day must equal the full world's.
func TestPaperKeepsEventDensity(t *testing.T) {
	full := rtbh.DefaultConfig()
	wl, err := workloadByName("paper")
	if err != nil {
		t.Fatal(err)
	}
	cfg := wl.build()
	if cfg.Days != paperDays {
		t.Fatalf("paper runs %d days, want %d", cfg.Days, paperDays)
	}
	if want := full.EventsTotal * paperDays / full.Days; cfg.EventsTotal != want {
		t.Errorf("EventsTotal %d, want %d", cfg.EventsTotal, want)
	}
	if want := full.UniqueVictims * paperDays / full.Days; cfg.UniqueVictims != want {
		t.Errorf("UniqueVictims %d, want %d", cfg.UniqueVictims, want)
	}
	// Equal up to the integer division: less than one event per day apart.
	if d := cfg.EventsTotal*full.Days - full.EventsTotal*cfg.Days; d > 0 || -d >= full.Days {
		t.Errorf("events per day: %d/%d vs %d/%d", cfg.EventsTotal, cfg.Days, full.EventsTotal, full.Days)
	}
	if cfg.Members != full.Members || cfg.RTBHUsers != full.RTBHUsers || cfg.RemoteOriginASes != full.RemoteOriginASes {
		t.Error("truncation changed the world's structure")
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	// Setting Days alone is what `rtbh-sim -days` does: the event count
	// stays, so the world gets denser, not shorter.
	squeezed := full
	squeezed.Days = paperDays
	if squeezed.EventsTotal/squeezed.Days <= 10*cfg.EventsTotal/cfg.Days {
		t.Error("expected the squeezed world to be far denser than the truncated one")
	}
}

func TestTruncateDaysLeavesLongerWorldsAlone(t *testing.T) {
	cfg := rtbh.TestConfig()
	if got := truncateDays(cfg, cfg.Days+1); got != cfg {
		t.Error("truncating to more days than the world has must be a no-op")
	}
}

func TestWorkloadsValidate(t *testing.T) {
	for _, wl := range workloads {
		cfg := wl.build()
		if cfg.Seed != planSeed {
			t.Errorf("%s: plan seed %d, want %d", wl.name, cfg.Seed, planSeed)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		if wl.records == 0 {
			t.Errorf("%s: no record target", wl.name)
		}
	}
}

// The seed moves the sampling denominator and nothing else, by less than
// resampleSpan, and equal seeds give equal worlds.
func TestResample(t *testing.T) {
	base := rtbh.TestConfig()
	base.SamplingRate = 3000
	seen := map[int64]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		got := resample(base, seed)
		if got != resample(base, seed) {
			t.Errorf("seed %d: not deterministic", seed)
		}
		if d := got.SamplingRate - base.SamplingRate; d < 0 || d >= resampleSpan {
			t.Errorf("seed %d moved the denominator by %d", seed, d)
		}
		seen[got.SamplingRate] = true
		got.SamplingRate = base.SamplingRate
		if got != base {
			t.Errorf("seed %d changed more than the sampling denominator", seed)
		}
	}
	if len(seen) != 10 {
		t.Errorf("seeds 1..10 gave %d distinct denominators, want 10", len(seen))
	}
}
