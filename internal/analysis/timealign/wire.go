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
// same records encode identically.
func (a *Aggregator) MarshalBinary() ([]byte, error) {
	w := analysis.NewWireWriter()
	w.Byte(wireVersion)
	w.Varint(a.total)
	for _, vals := range [][]float64{a.starts, a.ends} {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		w.Uvarint(uint64(len(sorted)))
		for _, v := range sorted {
			w.F64(v)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary replaces the aggregator's interval state with the
// decoded snapshot. Each endpoint array must
// come sorted, as MarshalBinary writes it, and hold no NaN and no -0:
// AddDropped records neither, and their place in a sorted array is not
// unique. On error the aggregator is left unchanged.
func (a *Aggregator) UnmarshalBinary(data []byte) error {
	r := analysis.NewWireReader(data)
	r.Version(wireVersion)
	total := r.Varint()
	var arrays [2][]float64
	for i := range arrays {
		n := r.Count(8)
		vals := make([]float64, 0, n)
		for j := 0; j < n; j++ {
			v := r.F64()
			if r.Err() != nil {
				break
			}
			if math.IsNaN(v) || v == 0 && math.Signbit(v) || j > 0 && v < vals[j-1] {
				return fmt.Errorf("timealign: endpoint %v out of order or not canonical", v)
			}
			vals = append(vals, v)
		}
		arrays[i] = vals
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("timealign: %w", err)
	}
	if len(arrays[0]) != len(arrays[1]) {
		return fmt.Errorf("timealign: %d starts but %d ends", len(arrays[0]), len(arrays[1]))
	}
	a.total = total
	a.starts = arrays[0]
	a.ends = arrays[1]
	return nil
}
