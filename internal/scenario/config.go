// Package scenario constructs and runs the synthetic IXP world whose
// measurements the analysis pipeline consumes: the member ecosystem with
// its mix of blackhole import policies, the address plan and IP-to-AS
// mapping, the host population behind blackholed prefixes, the DDoS attack
// schedule, and the RTBH signaling behaviour of operators (automatic
// on-off mitigation, long-forgotten zombies, squatting protection,
// targeted announcements).
//
// All magnitudes follow the paper's published shape, with absolute traffic
// volumes scaled down (documented in DESIGN.md) so that a full
// measurement-period simulation stays laptop-sized. Every random decision
// derives from Config.Seed, making runs bit-reproducible.
package scenario

import (
	"fmt"
	"math"
	"time"
)

// Config parameterizes a simulation. The zero value is not valid; start
// from DefaultConfig or TestConfig.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Start is the beginning of the measurement period.
	Start time.Time
	// Days is the measurement duration. The paper covers 104 days
	// (2018-09-26 .. 2019-01-11, with small gaps we do not model).
	Days int

	// Members is the number of ASes connected to the peering platform
	// (paper: ~830 on average).
	Members int
	// RTBHUsers is how many members announce blackholes (paper: 78).
	RTBHUsers int
	// VictimOriginASes is the number of distinct origin ASes blackholed
	// prefixes belong to (paper: 170).
	VictimOriginASes int
	// RemoteOriginASes is the size of the non-member origin-AS universe
	// routed through the IXP; amplifier pools live here (paper: ~65k
	// advertised ASes, 11k of which source amplification traffic).
	RemoteOriginASes int

	// SamplingRate is the 1:N packet sampling denominator (paper: 10000).
	SamplingRate int64
	// ClockOffset is the data-plane clock skew relative to the control
	// plane (paper's MLE estimate: -40ms).
	ClockOffset time.Duration

	// EventsTotal is the number of RTBH events to schedule (paper: ~34k
	// over 104 days). Scaled down proportionally in test configs.
	EventsTotal int
	// UniqueVictims is the number of distinct blackholed host addresses
	// (paper: events reduce to ~17k unique prefixes at delta = infinity).
	UniqueVictims int

	// Traffic scale (sampled-record budget drivers).

	// BaselineDailyPackets is the mean daily per-direction packet count
	// of an active (server or client) host. With 1:10000 sampling, 25000
	// packets/day yields ~2.5 samples/day/direction, enough to meet the
	// paper's >=20-active-day host-analysis criterion.
	BaselineDailyPackets int64
	// AttackPPSMedian is the median attack packet rate. The paper's
	// median attack is ~100k pps; the default here is lower to keep the
	// record volume tractable, preserving all relative shapes.
	AttackPPSMedian float64
	// AttackDurationMedian is the median attack duration.
	AttackDurationMedian time.Duration
	// TrafficScale multiplies every traffic magnitude — attack rates,
	// host baselines, scan volumes, internal traffic — without touching
	// the world's structure (members, events, schedules, addresses).
	// Zero and 1 both mean the documented scaled-down defaults; ~50
	// restores the paper's absolute magnitudes (its median attack is
	// ~100k pps vs the default AttackPPSMedian of 1500, its vantage point
	// saw ≈590M attributed sampled packets over 104 days). The factor is
	// recorded in the dataset metadata so the analysis and detection
	// thresholds calibrated to scale 1 adapt (detect.DefaultThreshold,
	// anomaly.MinMagnitude).
	TrafficScale float64

	// MeanAmplifiersPerAttack controls reflector-pool draws (paper
	// observes 1,086 on average; scaled down by default).
	MeanAmplifiersPerAttack int

	// TargetedEpochStart/Days bound the period during which a heavy RTBH
	// user applies targeted (restricted-audience) announcements,
	// reproducing the early-October excursion in Fig 4. Days <= 0
	// disables the epoch.
	TargetedEpochStartDay int
	TargetedEpochDays     int

	// InternalTrafficShare is the fraction of flow records involving IXP-
	// internal systems (paper: 0.01%), removed during analysis cleaning.
	InternalTrafficShare float64

	// BilateralShare is the fraction of attack events additionally
	// blackholed via private/bilateral agreements outside the route
	// server (paper: ~5% of dropped bytes).
	BilateralShare float64

	// IXPs is the number of exchanges in a federated run. Each IXP gets
	// its own route server, fabric, and member home assignment (member i
	// homes at IXP i mod IXPs); the world itself — members, addresses,
	// attack schedule — is planned once, independent of IXPs, so a
	// federated run partitions exactly the single-IXP run's measurements.
	// Zero or one means a single exchange.
	IXPs int
	// IXPClockSkewStep adds i*step to IXP i's data-plane clock offset,
	// modeling independently drifting measurement clocks per exchange.
	// IXP 0 always keeps the base ClockOffset.
	IXPClockSkewStep time.Duration
	// MitigationPolicy selects how victims mitigate DDoS attacks:
	//
	//   "" or "rtbh"  RTBH only — the paper's observed practice and the
	//                 bit-exact default world.
	//   "flowspec"    victims of amplification attacks announce FlowSpec
	//                 discard rules (dst prefix + UDP + the attack's
	//                 service source ports) instead of RTBH; attacks
	//                 FlowSpec cannot express (SYN floods, random-port
	//                 floods) fall back to RTBH.
	//   "escalate"    victims start with RTBH and escalate to FlowSpec
	//                 mid-mitigation, withdrawing the blackhole — every
	//                 such event exhibits both phases, the shape Table 5's
	//                 per-event comparison needs.
	//   "mixed"       per-event choice among the three.
	//
	// Any non-default policy enables FlowSpec import on all members and
	// changes the planned world (new random draws), so it cannot be
	// compared bit-for-bit against a default run of the same seed.
	MitigationPolicy string

	// MultiHomedShare is the fraction of RTBH-using members connected at
	// two exchanges (home and the next one). A multi-homed member's
	// inbound traffic splits deterministically across both, but its RTBH
	// signaling reaches only its home route server — so the secondary
	// exchange keeps delivering attack traffic the home exchange drops,
	// the cross-IXP blind spot the federated report surfaces. Non-zero
	// values trade exact single-IXP parity for this effect.
	MultiHomedShare float64
}

// DefaultConfig returns the full paper-scale configuration: 104 days,
// 830 members, ~34k RTBH events. A run takes about five seconds and emits
// 12.1M flow records (612 MB on disk).
func DefaultConfig() Config {
	return Config{
		Seed:                    1,
		Start:                   time.Date(2018, 9, 26, 0, 0, 0, 0, time.UTC),
		Days:                    104,
		Members:                 830,
		RTBHUsers:               78,
		VictimOriginASes:        170,
		RemoteOriginASes:        20000,
		SamplingRate:            10000,
		ClockOffset:             -40 * time.Millisecond,
		EventsTotal:             34000,
		UniqueVictims:           17000,
		BaselineDailyPackets:    25000,
		AttackPPSMedian:         1500,
		AttackDurationMedian:    35 * time.Minute,
		MeanAmplifiersPerAttack: 300,
		TargetedEpochStartDay:   5,
		TargetedEpochDays:       17,
		InternalTrafficShare:    0.0001,
		BilateralShare:          0.05,
	}
}

// TestConfig returns a miniature world (about 1/40 the default scale)
// suitable for unit and integration tests: seconds to run, a few tens of
// thousands of flow records.
func TestConfig() Config {
	c := DefaultConfig()
	c.Days = 30
	c.Members = 120
	c.RTBHUsers = 20
	c.VictimOriginASes = 30
	c.RemoteOriginASes = 800
	c.EventsTotal = 900
	c.UniqueVictims = 450
	c.MeanAmplifiersPerAttack = 60
	c.TargetedEpochStartDay = 3
	c.TargetedEpochDays = 8
	return c
}

// BenchConfig returns a mid-size world for the benchmark harness: large
// enough for stable statistics, small enough to iterate.
func BenchConfig() Config {
	c := DefaultConfig()
	c.Days = 60
	c.Members = 400
	c.RTBHUsers = 40
	c.VictimOriginASes = 80
	c.RemoteOriginASes = 5000
	c.EventsTotal = 8000
	c.UniqueVictims = 4000
	c.MeanAmplifiersPerAttack = 150
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Days <= 3:
		return errf("Days must exceed 3 (72h pre-windows need room), got %d", c.Days)
	case c.Members < 10:
		return errf("Members must be >= 10, got %d", c.Members)
	case c.RTBHUsers < 1 || c.RTBHUsers > c.Members:
		return errf("RTBHUsers must be in [1, Members], got %d", c.RTBHUsers)
	case c.VictimOriginASes < 1:
		return errf("VictimOriginASes must be >= 1, got %d", c.VictimOriginASes)
	case c.RemoteOriginASes < 10:
		return errf("RemoteOriginASes must be >= 10, got %d", c.RemoteOriginASes)
	case c.SamplingRate < 1:
		return errf("SamplingRate must be >= 1, got %d", c.SamplingRate)
	case c.EventsTotal < 10:
		return errf("EventsTotal must be >= 10, got %d", c.EventsTotal)
	case c.UniqueVictims < 5 || c.UniqueVictims > c.EventsTotal:
		return errf("UniqueVictims must be in [5, EventsTotal], got %d", c.UniqueVictims)
	case c.BaselineDailyPackets <= 0:
		return errf("BaselineDailyPackets must be positive")
	case c.AttackPPSMedian <= 0:
		return errf("AttackPPSMedian must be positive")
	case c.TrafficScale < 0 || math.IsInf(c.TrafficScale, 0) || math.IsNaN(c.TrafficScale):
		return errf("TrafficScale must be finite and >= 0 (0 means 1), got %g", c.TrafficScale)
	case c.AttackDurationMedian <= 0:
		return errf("AttackDurationMedian must be positive")
	case c.MeanAmplifiersPerAttack < 1:
		return errf("MeanAmplifiersPerAttack must be >= 1")
	case c.Start.IsZero():
		return errf("Start must be set")
	case c.IXPs < 0:
		return errf("IXPs must be >= 0, got %d", c.IXPs)
	case c.MultiHomedShare < 0 || c.MultiHomedShare > 1:
		return errf("MultiHomedShare must be in [0, 1], got %g", c.MultiHomedShare)
	case c.MultiHomedShare > 0 && c.IXPs < 2:
		return errf("MultiHomedShare requires IXPs >= 2")
	}
	switch c.MitigationPolicy {
	case "", "rtbh", "flowspec", "escalate", "mixed":
	default:
		return errf("MitigationPolicy must be one of rtbh, flowspec, escalate, mixed; got %q", c.MitigationPolicy)
	}
	return nil
}

// MitigationEnabled reports whether the policy plans FlowSpec mitigation
// (anything beyond the default RTBH-only behaviour).
func (c *Config) MitigationEnabled() bool {
	return c.MitigationPolicy != "" && c.MitigationPolicy != "rtbh"
}

// End returns the end of the measurement period.
func (c *Config) End() time.Time { return c.Start.AddDate(0, 0, c.Days) }

// Scale returns the effective traffic-magnitude multiplier: TrafficScale
// with the zero value normalized to 1. Multiplying by exactly 1.0 is an
// identity on floats, so scale-1 worlds stay bit-identical to worlds
// planned before the knob existed.
func (c *Config) Scale() float64 {
	if c.TrafficScale == 0 {
		return 1
	}
	return c.TrafficScale
}

func errf(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}
