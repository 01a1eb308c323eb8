// Package visibility analyses targeted blackhole announcements (paper
// §4.1, Fig 4): how many of the currently announced blackholes are kept
// invisible from peers via route-server targeting communities. The
// per-peer view is derived purely from the control plane, exactly as the
// paper derives it from the collected BGP communities.
package visibility

import (
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/stats"
)

// Point is one sample of the filtered-share quantiles: the fraction of
// announced blackholes not visible to the most-filtered peer (Max), the
// 99th-percentile peer (P99) and the median peer (P50).
type Point struct {
	Time   time.Time
	Active int
	Max    float64
	P99    float64
	P50    float64
}

// Result is the Fig 4 series plus summary maxima.
type Result struct {
	Series []Point
	// PeakMax/PeakP99/PeakP50 are the largest observed values of each
	// quantile across the period (§4.1 quotes 10.8% / 6.2%).
	PeakMax float64
	PeakP99 float64
	PeakP50 float64
	// TargetedShare is the fraction of announcements carrying targeting
	// communities at all.
	TargetedShare float64
}

type routeKey struct {
	prefix bgp.Prefix
	peer   uint32
}

// Compute samples the per-peer hidden-share quantiles every interval over
// [start, end). peers is the member population (the route server's
// clients); updates must be time-sorted.
func Compute(updates []analysis.ControlUpdate, peers []uint32, start, end time.Time, interval time.Duration) *Result {
	res := &Result{}
	if !end.After(start) || len(peers) == 0 || interval <= 0 {
		return res
	}
	peerIdx := make(map[uint32]int, len(peers))
	for i, p := range peers {
		peerIdx[p] = i
	}
	hidden := make([]int, len(peers))  // per-peer count of invisible actives
	exclOf := make(map[routeKey][]int) // active route -> excluded peer indices
	active := make(map[routeKey]bool)

	apply := func(key routeKey, idxs []int, sign int) {
		for _, i := range idxs {
			hidden[i] += sign
		}
	}

	targeted, announcements := 0, 0
	ui := 0
	samples := int(end.Sub(start) / interval)
	scratch := make([]float64, len(peers))
	for s := 0; s < samples; s++ {
		cut := start.Add(time.Duration(s+1) * interval)
		for ui < len(updates) && updates[ui].Time.Before(cut) {
			u := &updates[ui]
			key := routeKey{prefix: u.Prefix, peer: u.Peer}
			if u.Announce {
				announcements++
				var idxs []int
				for _, c := range u.Communities {
					if c.ASN() == 0 && c.Value() != 0 {
						if i, ok := peerIdx[uint32(c.Value())]; ok {
							idxs = append(idxs, i)
						}
					}
				}
				if len(idxs) > 0 {
					targeted++
				}
				if active[key] {
					// Re-announcement replaces the audience.
					apply(key, exclOf[key], -1)
					delete(exclOf, key)
				}
				active[key] = true
				if len(idxs) > 0 {
					exclOf[key] = idxs
					apply(key, idxs, +1)
				}
			} else if active[key] {
				apply(key, exclOf[key], -1)
				delete(exclOf, key)
				delete(active, key)
			}
			ui++
		}

		nActive := len(active)
		p := Point{Time: cut, Active: nActive}
		if nActive > 0 {
			for i, h := range hidden {
				scratch[i] = float64(h) / float64(nActive)
			}
			sorted := append([]float64(nil), scratch...)
			sort.Float64s(sorted)
			p.Max = sorted[len(sorted)-1]
			p.P99 = stats.QuantileSorted(sorted, 0.99)
			p.P50 = stats.QuantileSorted(sorted, 0.50)
		}
		res.Series = append(res.Series, p)
		if p.Max > res.PeakMax {
			res.PeakMax = p.Max
		}
		if p.P99 > res.PeakP99 {
			res.PeakP99 = p.P99
		}
		if p.P50 > res.PeakP50 {
			res.PeakP50 = p.P50
		}
	}
	if announcements > 0 {
		res.TargetedShare = float64(targeted) / float64(announcements)
	}
	return res
}
