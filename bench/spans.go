package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval around a call into a layer, recorded by the
// harness (not the program). Times are nanoseconds since the recorder
// started. Spans of one repetition share Rep.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by writeSpans, see selfTimes
	// Busy and Calls accumulate the per-call durations of calls too
	// numerous to get a span each (Inject, Process, WriteBatch: millions),
	// keyed by layer, on the enclosing span.
	Busy  map[string]int64 `json:"busy_ns,omitempty"`
	Calls map[string]int64 `json:"calls,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is used from the
// harness goroutine only.
type recorder struct {
	t0    time.Time
	rep   int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Rep: r.rep, Name: name, Start: r.now(), End: -1})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = r.now() }

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	fn()
	r.end(id)
	return r.dur(id)
}

func (r *recorder) dur(id int) time.Duration {
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// addBusy accounts one call of d nanoseconds to layer on span id.
func (r *recorder) addBusy(id int, layer string, d int64) {
	s := &r.spans[id]
	if s.Busy == nil {
		s.Busy = map[string]int64{}
		s.Calls = map[string]int64{}
	}
	s.Busy[layer] += d
	s.Calls[layer]++
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children (parallel
// work) are counted once; a child reaching outside its parent is clipped.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans dumps every recorded span, with its self time, as JSON.
func (r *recorder) writeSpans(path string) error {
	for i, self := range selfTimes(r.spans) {
		r.spans[i].Self = self
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
