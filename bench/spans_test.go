package main

import "testing"

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		// Nested: a child with its own child.
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 15, End: 25},
		// Overlapping siblings cover 50..80 once, not twice.
		{ID: 3, Parent: 0, Start: 50, End: 70},
		{ID: 4, Parent: 0, Start: 60, End: 80},
		// A child reaching past its parent is clipped at the parent's end.
		{ID: 5, Parent: 0, Start: 95, End: 120},
		// A sibling contained in an earlier one adds nothing.
		{ID: 6, Parent: 0, Start: 52, End: 58},
	}
	want := []int64{
		100 - 30 - 30 - 5, // root: minus [10,40], [50,80], [95,100]
		30 - 10,
		10,
		20,
		20,
		25,
		6,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

// Within a tree whose children stay inside their parents and do not
// overlap, self times add up to the root's duration: the property the
// budget table relies on.
func TestSelfTimesSumToRoot(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1)
	a := r.begin("a", root)
	r.timed("a1", a, func() {})
	r.end(a)
	r.timed("b", root, func() {})
	r.end(root)
	var sum int64
	for _, s := range selfTimes(r.spans) {
		sum += s
	}
	if sum != r.spans[root].End-r.spans[root].Start {
		t.Errorf("self times sum to %d, root lasted %d", sum, r.spans[root].End-r.spans[root].Start)
	}
}

func TestBusyAccumulatesOnSpan(t *testing.T) {
	r := newRecorder()
	id := r.begin("day", -1)
	r.addBusy(id, "fabric.inject", 5)
	r.addBusy(id, "fabric.inject", 7)
	r.addBusy(id, "ipfix.encode", 1)
	r.end(id)
	s := r.spans[id]
	if s.Busy["fabric.inject"] != 12 || s.Calls["fabric.inject"] != 2 || s.Calls["ipfix.encode"] != 1 {
		t.Errorf("busy %v calls %v", s.Busy, s.Calls)
	}
}
