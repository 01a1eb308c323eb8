package analysis

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// tally is the value the reference-model test stores per event.
type tally struct{ n int64 }

// mapPerEvent is the reference model for PerEvent: the plain map from
// event ID that each event-keyed operator kept before, walked in sorted
// key order as their encoders did.
type mapPerEvent map[int]*tally

func (m mapPerEvent) clone() mapPerEvent {
	c := make(mapPerEvent, len(m))
	for id, v := range m {
		cp := *v
		c[id] = &cp
	}
	return c
}

// merge adopts o's events that m lacks and sums the shared ones.
func (m mapPerEvent) merge(o mapPerEvent) {
	for id, v := range o {
		if d := m[id]; d != nil {
			d.n += v.n
		} else {
			m[id] = v
		}
	}
}

func (m mapPerEvent) rename(r map[int]int) mapPerEvent {
	out := make(mapPerEvent, len(m))
	for id, v := range m {
		out[r[id]] = v
	}
	return out
}

// ids returns m's event IDs, ascending.
func (m mapPerEvent) ids() []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func copyTally(v *tally) *tally {
	cp := *v
	return &cp
}

// mustMatchMap compares every way a PerEvent can be read with the
// reference: Len, Get over and past the ID range (negative IDs too), and
// Each, which must visit every event once in ascending ID order.
func mustMatchMap(t *testing.T, label string, s *PerEvent[tally], ref mapPerEvent) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference %d", label, s.Len(), len(ref))
	}
	want := ref.ids()
	var got []int
	s.Each(func(id int, v *tally) {
		got = append(got, id)
		if r := ref[id]; r == nil || *r != *v {
			t.Fatalf("%s: Each gives event %d = %v, reference %v", label, id, *v, r)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Each walks %v, reference IDs in order %v", label, got, want)
	}
	hi := 4
	if len(want) > 0 {
		hi += want[len(want)-1]
	}
	for id := -2; id < hi; id++ {
		v, r := s.Get(id), ref[id]
		if (v == nil) != (r == nil) || v != nil && *v != *r {
			t.Fatalf("%s: Get(%d) = %v, reference %v", label, id, v, r)
		}
	}
}

// fillPair puts k random events into the store and, as copies, into its
// reference.
func fillPair(r *stats.RNG, s *PerEvent[tally], ref mapPerEvent, k, ids int) {
	for ; k > 0; k-- {
		id, v := r.Intn(ids), &tally{int64(1 + r.Intn(100))}
		s.Put(id, v)
		ref[id] = copyTally(v)
	}
}

// TestPerEventMatchesMapReference drives seeded random sequences of Put,
// Get, Merge, Clone (deep and shared), Rename and the ID-order walk
// against the map the event-keyed operators held before. Renames either
// permute the events into a new ID range, or are rejected — an event
// left unmapped, two events sent to one ID, a negative ID — and must
// then leave the store as it was.
func TestPerEventMatchesMapReference(t *testing.T) {
	fold := func(_ int, dst, src *tally) { dst.n += src.n }
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := stats.NewRNG(seed)
			var s PerEvent[tally]
			ref := mapPerEvent{}
			mustMatchMap(t, "empty", &s, ref)
			var rejected, renamed, merged int
			for step := 0; step < 400; step++ {
				var op string
				switch k := r.Intn(10); {
				case k < 4:
					op = "put"
					fillPair(r, &s, ref, 1+r.Intn(8), 40)
				case k == 4:
					op = "merge"
					var o PerEvent[tally]
					oref := mapPerEvent{}
					fillPair(r, &o, oref, r.Intn(12), 60)
					s.Merge(&o, fold)
					ref.merge(oref)
					merged++
				case k == 5:
					op = "deep clone"
					c := s.Clone(copyTally)
					cref := ref.clone()
					// The original writes on; the clone keeps what it had.
					s.Each(func(id int, v *tally) { v.n++; ref[id].n++ })
					fillPair(r, &s, ref, 3, 40)
					mustMatchMap(t, fmt.Sprintf("step %d: clone", step), &c, cref)
				case k == 6:
					op = "shared clone"
					c := s.Clone(nil)
					s.Each(func(id int, v *tally) {
						if c.Get(id) != v {
							t.Fatalf("step %d: shared clone holds a copy of event %d", step, id)
						}
					})
					s, ref = c, ref.clone()
				case k == 7 && len(ref) > 0:
					op = "rename"
					ids := ref.ids()
					m := make(map[int]int, len(ids))
					base := r.Intn(50)
					for i, id := range ids {
						m[id] = base + 2*((i+step)%len(ids))
					}
					x := ids[r.Intn(len(ids))]
					switch kind := r.Intn(4); {
					case kind == 0:
						op = "rename leaving an event unmapped"
						delete(m, x)
					case kind == 1 && len(ids) > 1:
						op = "rename sending two events to one ID"
						m[x] = m[ids[(slices.Index(ids, x)+1)%len(ids)]]
					case kind == 2:
						op = "rename to a negative ID"
						m[x] = -1
					default:
						if err := s.Rename(m); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						ref = ref.rename(m)
						renamed++
					}
					if op != "rename" {
						if err := s.Rename(m); err == nil {
							t.Fatalf("step %d: %s accepted", step, op)
						}
						rejected++
					}
				default:
					op = "read"
				}
				mustMatchMap(t, fmt.Sprintf("step %d (%s)", step, op), &s, ref)
			}
			if renamed == 0 || rejected == 0 || merged == 0 {
				t.Fatalf("sequence exercised %d renames, %d rejected renames and %d merges", renamed, rejected, merged)
			}
		})
	}
}
