package rtbh

import "repro/internal/analysis/pipeline"

// TailReplayStates computes the finalized, marshaled pipeline state over
// everything observed so far twice: once replaying the unsealed tail
// through a plain clone, which keeps the sealed side's wide gates, and
// once through a frozen clone, the way frozen does. The two must be
// byte-equal (TestFrozenReplayMatchesSpeculative).
func (a *OnlineAnalyzer) TailReplayStates() (wide, frozen []byte, err error) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.advanceLocked()
	_, _, pend, _ := a.ingestView()
	finalized := func(clone *pipeline.Pipeline) ([]byte, error) {
		clone.ObserveRecords(pend[a.head:])
		clone.Finalize()
		return clone.MarshalState()
	}
	if wide, err = finalized(a.ops.Clone()); err != nil {
		return nil, nil, err
	}
	clone := a.ops.Clone()
	clone.Freeze()
	frozen, err = finalized(clone)
	return wide, frozen, err
}

// PlanJournal returns the fault journal of exchange i's own plan, the
// string ChaosJournal returned when a live run had one exchange and one
// plan.
func (lr *LiveRun) PlanJournal(i int) string { return lr.xs[i].plan.Journal() }
