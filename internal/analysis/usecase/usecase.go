// Package usecase classifies RTBH events into operational use cases
// (paper §2, Table 1 and §7.3, Fig 19) by combining control-plane shape
// (prefix length, duration, signaling pattern) with the data-plane
// verdicts of the anomaly analysis:
//
//   - infrastructure protection: a DDoS-like anomaly precedes the event,
//   - prefix squatting protection: a covering (<= /24) prefix blackholed
//     for months without traffic,
//   - RTBH zombies: host blackholes with almost no traffic that stay
//     active for weeks — triggered once and forgotten,
//   - other: everything that matches no known pattern (the paper finds a
//     striking ~60% here).
//
// Content blocking (stable /32 with normal traffic and no attack) is
// modeled for completeness; the paper — like this reproduction's default
// scenario — finds no occurrences.
package usecase

import (
	"time"

	"repro/internal/analysis/anomaly"
	"repro/internal/analysis/events"
)

// Class is the inferred use case.
type Class int

// Use-case classes.
const (
	ClassOther Class = iota
	ClassInfrastructureProtection
	ClassSquattingProtection
	ClassZombie
	ClassContentBlocking
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassInfrastructureProtection:
		return "infrastructure-protection"
	case ClassSquattingProtection:
		return "squatting-protection"
	case ClassZombie:
		return "zombie"
	case ClassContentBlocking:
		return "content-blocking"
	default:
		return "other"
	}
}

// Classification thresholds.
const (
	// SquatMinDuration is the minimum lifetime of a squatting-protection
	// blackhole (Table 1: months; we require three weeks to be robust on
	// shorter measurement periods).
	SquatMinDuration = 21 * 24 * time.Hour
	// ZombieMinDuration separates forgotten blackholes from deliberate
	// short mitigations.
	ZombieMinDuration = 7 * 24 * time.Hour
	// ZombieMaxPackets is the §7.3 "fewer than 10 packets" criterion.
	ZombieMaxPackets = 10
	// ContentMinDuration and ContentMinPackets describe stable,
	// long-lived blackholes with ongoing normal traffic.
	ContentMinDuration = 14 * 24 * time.Hour
	ContentMinPackets  = 500
)

// EventClass is the per-event classification result.
type EventClass struct {
	EventID  int
	Class    Class
	Duration time.Duration
}

// Result summarizes Fig 19.
type Result struct {
	PerEvent []EventClass
	Counts   map[Class]int
	Shares   map[Class]float64
	// Durations lists event durations per class (the duration dimension
	// of Fig 19).
	Durations map[Class][]time.Duration
	// SquatPrefixes / SquatASes quantify the squatting population the
	// paper reports as "four ASes and 21 prefixes".
	SquatPrefixes int
	SquatASes     int
	// LowTrafficHostShare is the share of all events that were
	// classified "other" yet are /32 with fewer than 10 packets —
	// zombie-like blackholes too short-lived for the zombie criterion
	// (the §7.3 discussion around the 13%).
	LowTrafficHostShare float64
}

// Classify combines events with their anomaly verdicts (indexed by event
// ID order, as returned by anomaly.Aggregator.AnalyzeScaled over the same
// event slice).
func Classify(evs []*events.Event, verdicts []anomaly.Verdict, periodEnd time.Time) *Result {
	res := &Result{
		Counts:    make(map[Class]int),
		Shares:    make(map[Class]float64),
		Durations: make(map[Class][]time.Duration),
	}
	vByID := make(map[int]*anomaly.Verdict, len(verdicts))
	for i := range verdicts {
		vByID[verdicts[i].EventID] = &verdicts[i]
	}
	squatASes := make(map[uint32]bool)
	lowTraffic := 0

	for _, e := range evs {
		dur := e.Duration(periodEnd)
		v := vByID[e.ID]
		class := ClassOther

		hasAnomaly := v != nil && v.Within10Min
		eventPkts := int64(0)
		if v != nil {
			eventPkts = v.EventPackets
		}

		switch {
		case hasAnomaly:
			class = ClassInfrastructureProtection
		case e.Prefix.Len <= 24 && dur >= SquatMinDuration && eventPkts < ZombieMaxPackets:
			class = ClassSquattingProtection
			squatASes[e.OriginAS] = true
			res.SquatPrefixes++
		case e.Prefix.Len == 32 && eventPkts < ZombieMaxPackets &&
			(dur >= ZombieMinDuration || e.OpenEnded()):
			class = ClassZombie
		case e.Prefix.Len == 32 && dur >= ContentMinDuration &&
			eventPkts >= ContentMinPackets && len(e.Episodes) <= 3:
			class = ClassContentBlocking
		}

		if class == ClassOther && e.Prefix.Len == 32 && eventPkts < ZombieMaxPackets {
			lowTraffic++
		}

		res.PerEvent = append(res.PerEvent, EventClass{EventID: e.ID, Class: class, Duration: dur})
		res.Counts[class]++
		res.Durations[class] = append(res.Durations[class], dur)
	}
	if len(evs) > 0 {
		for c, n := range res.Counts {
			res.Shares[c] = float64(n) / float64(len(evs))
		}
		res.LowTrafficHostShare = float64(lowTraffic) / float64(len(evs))
	}
	res.SquatASes = len(squatASes)
	return res
}

// Expectation is one row of the paper's Table 1: the literature-based
// expected characteristics per use case.
type Expectation struct {
	UseCase         string
	Trigger         string
	PrefixLength    string
	ReactionLatency string
	Duration        string
	Traffic         string
	Target          string
}

// Table1 is the paper's Table 1, encoded for the experiment harness.
var Table1 = []Expectation{
	{
		UseCase: "Infrastructure Protection", Trigger: "Automatic Detection and Triggering",
		PrefixLength: "/32", ReactionLatency: "Secs-Mins", Duration: "Mins-Hours",
		Traffic: "Attack", Target: "Server",
	},
	{
		UseCase: "Prefix Squatting Protection", Trigger: "Manual",
		PrefixLength: "<= /24", ReactionLatency: "NA", Duration: "Months",
		Traffic: "Scanning", Target: "None",
	},
	{
		UseCase: "Content Blocking", Trigger: "Manual",
		PrefixLength: "/32", ReactionLatency: "NA", Duration: "Weeks-Months",
		Traffic: "Normal", Target: "Server",
	},
}
