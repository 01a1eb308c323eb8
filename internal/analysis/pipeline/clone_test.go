package pipeline

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/analysis/events"
)

// speculativeOver returns a wide-gate pipeline bound to the parity
// fixture's control plane.
func speculativeOver(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewSpeculative(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	evs := events.Merge(parityUpdates(), events.DefaultDelta, p.Meta.End)
	p.Rebind(evs, events.NewIndex(evs, p.Meta.End))
	return p
}

func mustMarshalState(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	data, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCloneSharedStateIsNeverWritten pins what lets a clone, and anything
// composed from it, outlive the lock it was taken under: the original
// never writes a sub-aggregate it shares with a clone. Readers keep
// encoding two clones — one taken mid-stream, one a clone of that clone
// which has itself observed since — on their own goroutines, with no
// synchronisation against the original, while the original observes the
// rest of the stream and is cloned again and again. Under the race
// detector an in-place write to shared state is a reported race; without
// it, the clones' bytes must still never change. The original must end up
// where a pipeline that was never cloned does.
func TestCloneSharedStateIsNeverWritten(t *testing.T) {
	recs := parityStream(24000)
	half := len(recs) / 2

	p := speculativeOver(t)
	p.ObserveRecords(recs[:half])
	first := p.Clone()
	second := first.Clone()
	second.ObserveRecords(recs[half : half+2000])
	clones := []*Pipeline{first, second}
	want := [][]byte{mustMarshalState(t, first), mustMarshalState(t, second)}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := range clones {
		readers.Add(1)
		go func(c *Pipeline, want []byte) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := c.MarshalState()
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("a clone changed while the original kept observing (err %v)", err)
					return
				}
				if len(c.ComposeProfiles(1)) == 0 {
					t.Error("clone lost its host profiles")
					return
				}
			}
		}(clones[i], want[i])
	}
	for lo := half; lo < len(recs); lo += 1000 {
		p.ObserveRecords(recs[lo:min(lo+1000, len(recs))])
		p.Clone().ObserveRecords(recs[:500]) // a short-lived clone that writes
	}
	close(stop)
	readers.Wait()

	if p.CowCopies() == 0 {
		t.Fatal("the original never copied a shared sub-aggregate; nothing was shared")
	}
	seq := speculativeOver(t)
	seq.ObserveRecords(recs)
	if !bytes.Equal(mustMarshalState(t, p), mustMarshalState(t, seq)) {
		t.Fatal("the cloned original diverges from a pipeline that was never cloned")
	}
}
