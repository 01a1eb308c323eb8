package scenario

import (
	"testing"
	"time"
)

// TestMitigationPolicyDefaultUntouched pins that the default policy
// plans no FlowSpec windows — the bit-exactness guarantee for every
// pre-existing fixture. That the archives then carry no FlowSpec update
// and Table 5 no FlowSpec row is asserted on the measured dataset
// (TestDefaultPolicyMeasuresNoFlowSpec in the root package).
func TestMitigationPolicyDefaultUntouched(t *testing.T) {
	w := planTest(t)
	for _, e := range w.Events {
		if e.FlowSpec != nil {
			t.Fatalf("event %d planned a FlowSpec window under the default policy", e.ID)
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
