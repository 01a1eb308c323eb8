package scenario

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/ipfix"
)

// TestMitigationEfficacy reproduces the paper's Table 5 comparison as a
// measured experiment: under the escalate policy every amplification
// victim reacts with RTBH first and hands over to a FlowSpec discard
// rule mid-attack, so each event exhibits both mitigations back to back
// against the same attack. Scored against the fabric's ground-truth
// ledger:
//
//   - at least 90% of the amplification events are FULLY mitigated by
//     port filtering during the FlowSpec phase (the remainder are the
//     attacks with an unfilterable random-port component, §5.5);
//   - the dropped-legitimate fraction under FlowSpec is strictly below
//     the RTBH one for every event where both are measurable — the
//     whole point of fine-grained filtering.
func TestMitigationEfficacy(t *testing.T) {
	cfg := TestConfig()
	cfg.MitigationPolicy = "escalate"
	w, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := runOne(t, w, Sinks{Flow: func(*ipfix.RecordBatch) error { return nil }})
	ledger := x.FB.Mitigation()

	var total, full, legitPairs int
	for _, e := range w.Events {
		if e.Attack == nil || e.FlowSpec == nil {
			continue
		}
		em, ok := ledger[e.ID]
		if !ok {
			t.Fatalf("event %d has a FlowSpec window but no ledger entry", e.ID)
		}
		fsAtk := em.Attack[fabric.PhaseFlowSpec]
		if fsAtk.Total() == 0 {
			// Attack ended before the handover instant; nothing to score.
			continue
		}
		total++
		filterable := !e.Attack.ExtraRandomPort && !e.Attack.SYNFlood
		if fsAtk.Forwarded == 0 {
			full++
		} else if filterable {
			t.Errorf("event %d: filterable attack leaked %d packets past FlowSpec",
				e.ID, fsAtk.Forwarded)
		}

		rtbhLegit := em.Legit[fabric.PhaseRTBH]
		fsLegit := em.Legit[fabric.PhaseFlowSpec]
		if rtbhLegit.Total() == 0 || fsLegit.Total() == 0 {
			continue
		}
		rtbhFrac := float64(rtbhLegit.DroppedRTBH+rtbhLegit.DroppedFS) / float64(rtbhLegit.Total())
		fsFrac := float64(fsLegit.DroppedRTBH+fsLegit.DroppedFS) / float64(fsLegit.Total())
		if rtbhFrac == 0 {
			continue // RTBH never bit (no blackhole-ready ingress saw legit traffic)
		}
		legitPairs++
		if fsFrac >= rtbhFrac {
			t.Errorf("event %d: legit drop fraction %.3f under FlowSpec not below %.3f under RTBH",
				e.ID, fsFrac, rtbhFrac)
		}
	}

	if total < 20 {
		t.Fatalf("only %d amplification events with a measured FlowSpec phase; world too small to score", total)
	}
	if legitPairs < 10 {
		t.Fatalf("only %d events with measurable legitimate traffic in both phases", legitPairs)
	}
	if full*100 < total*90 {
		t.Errorf("fully mitigated %d/%d amplification events (%.1f%%), want >= 90%%",
			full, total, 100*float64(full)/float64(total))
	}
	t.Logf("amplification events scored: %d, fully mitigated: %d (%.1f%%), legit comparisons: %d",
		total, full, 100*float64(full)/float64(total), legitPairs)
}

// TestMitigationPolicyDefaultUntouched pins that the default policy
// plans no FlowSpec windows, issues no FlowSpec control messages, and
// keeps the ledger RTBH-only — the bit-exactness guarantee for every
// pre-existing fixture.
func TestMitigationPolicyDefaultUntouched(t *testing.T) {
	w := planTest(t)
	for _, e := range w.Events {
		if e.FlowSpec != nil {
			t.Fatalf("event %d planned a FlowSpec window under the default policy", e.ID)
		}
	}
	x, st := runOne(t, w, Sinks{Flow: func(*ipfix.RecordBatch) error { return nil }})
	if st.FlowSpecAnnouncements != 0 || st.FlowSpecWithdrawals != 0 {
		t.Fatalf("default run dispatched FlowSpec control: %d announces, %d withdraws",
			st.FlowSpecAnnouncements, st.FlowSpecWithdrawals)
	}
	for id, em := range x.FB.Mitigation() {
		fs := em.Attack[fabric.PhaseFlowSpec].Total() + em.Legit[fabric.PhaseFlowSpec].Total()
		if fs != 0 {
			t.Fatalf("event %d has FlowSpec-phase traffic under the default policy", id)
		}
	}
}

// TestMitigationPlanShape checks the planner's mode semantics: flowspec
// mode replaces the episodes outright, escalate truncates them at the
// handover instant, and the FlowSpec window always carries a source-port
// discard rule for the event prefix.
func TestMitigationPlanShape(t *testing.T) {
	for _, mode := range []string{"flowspec", "escalate", "mixed"} {
		cfg := TestConfig()
		cfg.MitigationPolicy = mode
		w, err := Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var withFS int
		for _, e := range w.Events {
			if e.FlowSpec == nil {
				continue
			}
			withFS++
			if e.Attack == nil || len(e.Attack.Protocols) == 0 {
				t.Fatalf("%s: non-amplification event %d got a FlowSpec window", mode, e.ID)
			}
			r := e.FlowSpec.Rule
			if r == nil || !r.HasDst || r.Dst != e.Prefix || len(r.SrcPorts) == 0 {
				t.Fatalf("%s: event %d rule malformed: %+v", mode, e.ID, r)
			}
			if mode == "flowspec" && len(e.Episodes) != 0 {
				t.Fatalf("flowspec: event %d kept %d RTBH episodes", e.ID, len(e.Episodes))
			}
			for _, ep := range e.Episodes {
				if ep.Withdraw.IsZero() || ep.Withdraw.After(e.FlowSpec.Start) {
					t.Fatalf("%s: event %d episode overlaps the FlowSpec window", mode, e.ID)
				}
			}
			if !e.FlowSpec.End.IsZero() && !e.FlowSpec.End.After(e.FlowSpec.Start) {
				t.Fatalf("%s: event %d empty FlowSpec window", mode, e.ID)
			}
			if e.Start().After(e.FlowSpec.Start) {
				t.Fatalf("%s: event %d starts after its FlowSpec window", mode, e.ID)
			}
		}
		if withFS < 10 {
			t.Fatalf("%s: only %d events with FlowSpec windows", mode, withFS)
		}
	}
}

// TestEscalationWindows pins that escalate leaves a real RTBH phase in
// front of the FlowSpec phase for long-enough events.
func TestEscalationWindows(t *testing.T) {
	cfg := TestConfig()
	cfg.MitigationPolicy = "escalate"
	w, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var both int
	for _, e := range w.Events {
		if e.FlowSpec == nil || len(e.Episodes) == 0 {
			continue
		}
		both++
		if d := e.FlowSpec.Start.Sub(e.Episodes[0].Announce); d < time.Minute {
			t.Fatalf("event %d RTBH phase only %v before escalation", e.ID, d)
		}
	}
	if both < 10 {
		t.Fatalf("only %d events with both phases", both)
	}
}
