package main

import (
	"reflect"
	"testing"
)

func TestCutPoints(t *testing.T) {
	for _, c := range []struct {
		name string
		lens []int
		n    int
		want []int
	}{
		{"even", []int{10, 10, 10, 10, 10, 10, 10, 10}, 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"pairs", []int{10, 10, 10, 10, 10, 10, 10, 10}, 4, []int{1, 3, 5, 7}},
		// One large batch crosses several eighths at once: one cut.
		{"skewed", []int{1, 90, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 8, []int{1, 10}},
		{"fewer batches than cuts", []int{5, 5}, 8, []int{0, 1}},
		{"single", []int{7}, 8, []int{0}},
		{"none", nil, 8, nil},
	} {
		got := cutPoints(c.lens, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: cutPoints(%v, %d) = %v, want %v", c.name, c.lens, c.n, got, c.want)
		}
		if len(c.lens) > 0 && got[len(got)-1] != len(c.lens)-1 {
			t.Errorf("%s: last cut %d is not the last batch", c.name, got[len(got)-1])
		}
	}
}
