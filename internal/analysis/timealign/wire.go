package timealign

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
)

// wireVersion is the timealign snapshot codec version.
const wireVersion = 1

// MarshalBinary encodes the interval state canonically: the record
// total, then the interval start and end endpoints each sorted
// ascending. Sorting the two arrays independently is semantics
// preserving — Estimate only ever consumes them sorted — and makes the
// encoding a fingerprint: merged and sequential aggregators over the
// same records encode identically. No start lies below minStart and no
// end above maxEnd, so the counted starts lead the starts and the
// counted ends close the ends.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Varint(a.total)
	w.Uvarint(uint64(a.lowStarts) + uint64(len(a.starts)))
	writeN(w, minStart, a.lowStarts)
	writeSorted(w, a.starts)
	w.Uvarint(uint64(len(a.ends)) + uint64(a.highEnds))
	writeSorted(w, a.ends)
	writeN(w, maxEnd, a.highEnds)
	return w.Bytes(), nil
}

func writeSorted(w *analysis.WireWriter, vals []float64) {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, v := range sorted {
		w.F64(v)
	}
}

func writeN(w *analysis.WireWriter, v float64, n int64) {
	for ; n > 0; n-- {
		w.F64(v)
	}
}

// UnmarshalBinary replaces the aggregator's interval state with the
// decoded snapshot. Each endpoint array must come sorted, as
// MarshalBinary writes it, hold no NaN and no -0 (AddDropped records
// neither, and their place in a sorted array is not unique), no start
// below minStart and no end above maxEnd. The starts at minStart and the
// ends at maxEnd are counted back. On error the aggregator is left
// unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	total := r.Varint()
	var (
		arrays  [2][]float64
		counted [2]int64
	)
	bounds := [2]float64{minStart, maxEnd}
	for i := range arrays {
		n := r.Count(8)
		prev := math.Inf(-1)
		for j := 0; j < n; j++ {
			v := r.F64()
			if r.Err() != nil {
				break
			}
			if math.IsNaN(v) || v == 0 && math.Signbit(v) || v < prev || v < minStart && i == 0 || v > maxEnd && i == 1 {
				return fmt.Errorf("timealign: endpoint %v out of order, out of range or not canonical", v)
			}
			prev = v
			if v == bounds[i] {
				counted[i]++
			} else {
				arrays[i] = append(arrays[i], v)
			}
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("timealign: %w", err)
	}
	if n, m := int64(len(arrays[0]))+counted[0], int64(len(arrays[1]))+counted[1]; n != m {
		return fmt.Errorf("timealign: %d starts but %d ends", n, m)
	}
	a.total = total
	a.starts, a.ends = arrays[0], arrays[1]
	a.lowStarts, a.highEnds = counted[0], counted[1]
	return nil
}
