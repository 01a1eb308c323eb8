package hosts

import "sort"

// Whitelist feasibility (paper §7.2): the paper concludes that
// "detection of legitimate traffic patterns and whitelisting of such
// patterns during an attack is not possible due to highly variable
// client traffic". This analysis quantifies that claim: for each
// detected host, how much of a day's incoming traffic lands on
// (protocol, port) pairs already seen as top ports on *earlier* days —
// the coverage an operator's whitelist would achieve during an attack.

// Coverage is one host's whitelist-coverage outcome.
type Coverage struct {
	IP uint32
	// Share is the mean fraction of daily incoming packets that a
	// whitelist built from all previous days' top ports would have
	// passed (first observed day excluded — there is nothing to
	// whitelist from yet).
	Share float64
	// Days is the number of days contributing to the mean.
	Days int
}

// WhitelistCoverage computes per-host whitelist coverage for hosts with
// at least minActiveDays active days (the same criterion as Profiles).
func (a *Aggregator) WhitelistCoverage(minActiveDays int) []Coverage {
	return a.WhitelistCoverageFunc(minActiveDays, nil)
}

// WhitelistCoverageFunc is WhitelistCoverage restricted to hosts for
// which keep returns true (nil keeps every host) — the compose-time
// counterpart of ProfilesFunc for speculatively profiled hosts.
func (a *Aggregator) WhitelistCoverageFunc(minActiveDays int, keep func(ip uint32) bool) []Coverage {
	var out []Coverage
	a.qualified(minActiveDays, keep, func(h *hostAgg) {
		seen := map[uint32]bool{}
		var shareSum float64
		counted, first := 0, true
		for i := range h.days {
			da := &h.days[i]
			if !da.hasIn {
				continue
			}
			keys, counts := da.top().Entries()
			if !first {
				var covered, total uint64
				for j, k := range keys {
					total += counts[j]
					if seen[k] {
						covered += counts[j]
					}
				}
				if total > 0 {
					shareSum += float64(covered) / float64(total)
					counted++
				}
			}
			if key, _, ok := da.top().Top(); ok {
				seen[key] = true
			}
			first = false
		}
		if counted > 0 {
			out = append(out, Coverage{IP: h.ip, Share: shareSum / float64(counted), Days: counted})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}
