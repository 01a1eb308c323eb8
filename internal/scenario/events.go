package scenario

import (
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/netgen"
	"repro/internal/peeringdb"
	"repro/internal/stats"
)

// Event-mix fractions of the total event budget (ground truth targets for
// Table 2 / Fig 19): 33% attack-triggered (27 pts with fast reaction, 6
// pts with slow reaction), 21% steady-traffic events, 33% quiet events,
// 13% zombies; squatting prefixes are an absolute handful.
const (
	fracDDoS   = 0.33
	fracSteady = 0.21
	fracZombie = 0.13

	// Of DDoS events: fraction with reaction latency <= 10 minutes.
	fracFastReaction = 27.0 / 33.0
	// Of DDoS events: fraction where the attack ends before the first
	// announcement (short bursts; no traffic during the RTBH).
	fracAttackEndsBeforeRTBH = 1.0 / 3.0
)

func planEvents(w *World, r *stats.RNG) {
	total := w.Cfg.EventsTotal
	nDDoS := int(float64(total) * fracDDoS)
	nSteady := int(float64(total) * fracSteady)
	nZombie := int(float64(total) * fracZombie)

	// Squatting protection: a handful of ASes and prefixes, scaled from
	// the paper's 4 ASes / 21 prefixes.
	w.SquatASes = max(2, 4*total/34000)
	w.SquatPrefix = max(6, 21*total/34000)
	nQuiet := total - nDDoS - nSteady - nZombie - w.SquatPrefix
	if nQuiet < 0 {
		nQuiet = 0
	}

	// Victim pools by kind.
	var busy, quiet, gaming []int
	for i, h := range w.Hosts {
		switch h.Kind {
		case HostQuiet:
			quiet = append(quiet, i)
		case HostGamingClient:
			gaming = append(gaming, i)
			busy = append(busy, i)
		default:
			busy = append(busy, i)
		}
	}

	// First give every host at least one event so the unique-victim count
	// matches the plan; then spend the rest of the budget with repeat
	// victims (gaming clients attract repeat attacks).
	type quota struct{ ddos, steady, quiet, zombie int }
	q := quota{ddos: nDDoS, steady: nSteady, quiet: nQuiet, zombie: nZombie}

	// Attack clusters draw members by a flattened traffic weight.
	flat := make([]float64, len(w.Members))
	for i, m := range w.Members {
		flat[i] = math.Pow(m.TrafficWeight, 0.4)
	}
	clusters := stats.NewChooser(flat)
	schedule := func(class EventClass, hostIdx int) {
		w.Events = append(w.Events, buildEvent(w, r, clusters, class, hostIdx))
	}

	for i, h := range w.Hosts {
		switch {
		case h.Kind == HostQuiet && q.zombie > 0 && r.Bool(float64(q.zombie)/float64(q.zombie+q.quiet+1)):
			schedule(ClassZombie, i)
			q.zombie--
		case h.Kind == HostQuiet && q.quiet > 0:
			schedule(ClassQuiet, i)
			q.quiet--
		case h.Kind == HostQuiet && q.ddos > 0:
			schedule(ClassDDoS, i)
			q.ddos--
		case h.Kind != HostQuiet && q.ddos > 0 && r.Bool(0.6):
			schedule(ClassDDoS, i)
			q.ddos--
		case h.Kind != HostQuiet && q.steady > 0:
			schedule(ClassSteady, i)
			q.steady--
		case q.ddos > 0:
			schedule(ClassDDoS, i)
			q.ddos--
		case q.quiet > 0 && h.Kind == HostQuiet:
			schedule(ClassQuiet, i)
			q.quiet--
		case q.steady > 0:
			schedule(ClassSteady, i)
			q.steady--
		default:
			schedule(ClassQuiet, i)
			if q.quiet > 0 {
				q.quiet--
			}
		}
	}

	pick := func(pool []int) int { return pool[r.Intn(len(pool))] }
	for q.ddos > 0 {
		// Repeat DDoS victims: mostly gaming clients, then other busy
		// hosts, occasionally quiet ones.
		var hostIdx int
		switch {
		case len(gaming) > 0 && r.Bool(0.55):
			hostIdx = pick(gaming)
		case len(busy) > 0 && r.Bool(0.7):
			hostIdx = pick(busy)
		case len(quiet) > 0:
			hostIdx = pick(quiet)
		default:
			hostIdx = r.Intn(len(w.Hosts))
		}
		schedule(ClassDDoS, hostIdx)
		q.ddos--
	}
	for q.steady > 0 && len(busy) > 0 {
		schedule(ClassSteady, pick(busy))
		q.steady--
	}
	for q.quiet > 0 && len(quiet) > 0 {
		schedule(ClassQuiet, pick(quiet))
		q.quiet--
	}
	for q.zombie > 0 && len(quiet) > 0 {
		schedule(ClassZombie, pick(quiet))
		q.zombie--
	}

	planSquatting(w, r)
	resolveEventOverlaps(w)
	assignTargeting(w, r)
	for i, e := range w.Events {
		e.ID = i
	}
}

// buildEvent constructs one event of the given class for the host.
func buildEvent(w *World, r *stats.RNG, clusters *stats.Chooser, class EventClass, hostIdx int) *Event {
	h := w.Hosts[hostIdx]
	vas := w.VictimASes[h.VictimAS]
	e := &Event{
		Class:    class,
		Prefix:   bgp.HostPrefix(h.IP),
		Peer:     vas.Peer,
		OriginAS: vas.ASN,
		Host:     hostIdx,
	}
	period := w.Cfg.End().Sub(w.Cfg.Start)

	switch class {
	case ClassDDoS:
		// Rarely the operator blankets the whole /24.
		if r.Bool(0.01) {
			e.Prefix = bgp.MakePrefix(h.IP, 24)
		}
		e.Attack = buildAttack(w, r, clusters)
		e.Bilateral = r.Bool(w.Cfg.BilateralShare)

		var latency time.Duration
		if r.Bool(fracFastReaction) {
			latency = time.Duration(logNormalMedian(r, 3, 0.6, 0.5, 9.8) * float64(time.Minute))
		} else {
			latency = time.Duration((10 + 45*r.Float64()) * float64(time.Minute))
		}
		// Attack start: diurnally skewed into the active hours, leaving
		// room for the mitigation tail before the period end.
		startOff := time.Duration(r.Float64() * float64(period-14*time.Hour))
		e.Attack.Start = w.Cfg.Start.Add(startOff)
		if r.Bool(fracAttackEndsBeforeRTBH) {
			e.Attack.Duration = time.Duration(float64(latency) * (0.5 + 0.45*r.Float64()))
		}
		e.Episodes = onOffEpisodes(r, e.Attack.Start.Add(latency), e.Attack.End(), w.Cfg.End())

	case ClassSteady:
		switch {
		case r.Bool(0.02):
			e.Prefix = bgp.MakePrefix(h.IP, uint8(25+r.Intn(7))) // /25../31
		case r.Bool(0.04):
			e.Prefix = bgp.MakePrefix(h.IP, 24)
		}
		start := w.Cfg.Start.Add(time.Duration(r.Float64() * float64(period-6*time.Hour)))
		e.Episodes = fewCycleEpisodes(r, start, w.Cfg.End(),
			time.Duration(logNormalMedian(r, 4, 1.2, 0.3, 96)*float64(time.Hour)), 1+r.Intn(4))

	case ClassQuiet:
		switch {
		case r.Bool(0.02):
			e.Prefix = bgp.MakePrefix(h.IP, uint8(25+r.Intn(7)))
		case r.Bool(0.02):
			e.Prefix = bgp.MakePrefix(h.IP, uint8(22+r.Intn(3))) // /22../24
		}
		start := w.Cfg.Start.Add(time.Duration(r.Float64() * float64(period-6*time.Hour)))
		e.Episodes = fewCycleEpisodes(r, start, w.Cfg.End(),
			time.Duration(logNormalMedian(r, 2, 1.5, 0.2, 72)*float64(time.Hour)), 1+r.Intn(2))

	case ClassZombie:
		start := w.Cfg.Start.Add(time.Duration(r.Float64() * float64(period) * 0.75))
		ep := Episode{Announce: start}
		// Most forgotten blackholes are eventually noticed and cleaned up
		// after weeks; a quarter survive to the end of the period. The
		// mix calibrates the average parallel-RTBH count (Fig 3).
		if r.Bool(0.85) {
			wd := start.Add(time.Duration((1 + 3*r.Float64()) * float64(7*24*time.Hour)))
			if wd.Before(w.Cfg.End()) {
				ep.Withdraw = wd
			}
		}
		e.Episodes = []Episode{ep}
	}
	return e
}

// onOffEpisodes generates the paper's Fig 9 pattern: announce after the
// attack is detected, then withdraw-probe-reannounce cycles while the
// attack lasts, with gaps short enough (< 10 min) that the analysis merges
// them into one event.
func onOffEpisodes(r *stats.RNG, firstAnnounce, attackEnd, periodEnd time.Time) []Episode {
	overrun := time.Duration((10 + 50*r.Float64()) * float64(time.Minute))
	mitigationEnd := attackEnd.Add(overrun)
	if mitigationEnd.Before(firstAnnounce.Add(10 * time.Minute)) {
		mitigationEnd = firstAnnounce.Add(10*time.Minute + time.Duration(r.Float64()*float64(2*time.Hour)))
	}
	var eps []Episode
	t := firstAnnounce
	for len(eps) < 60 {
		if len(eps) > 0 && !t.Before(mitigationEnd) {
			return eps
		}
		hold := time.Duration((1.5 + 3*r.Float64()) * float64(time.Minute))
		wd := t.Add(hold)
		if wd.After(mitigationEnd) {
			wd = mitigationEnd
		}
		if !wd.Before(periodEnd) {
			eps = append(eps, Episode{Announce: t})
			return eps
		}
		eps = append(eps, Episode{Announce: t, Withdraw: wd})
		if !wd.Before(mitigationEnd) {
			return eps
		}
		gap := time.Duration(logNormalMedian(r, 75, 0.8, 20, 570) * float64(time.Second))
		t = wd.Add(gap)
		if !t.Before(periodEnd) {
			return eps
		}
	}
	return eps
}

// fewCycleEpisodes generates a small number of long announce/withdraw
// cycles with short gaps.
func fewCycleEpisodes(r *stats.RNG, start, periodEnd time.Time, hold time.Duration, cycles int) []Episode {
	var eps []Episode
	t := start
	for i := 0; i < cycles; i++ {
		wd := t.Add(time.Duration(float64(hold) * (0.5 + r.Float64())))
		if !wd.Before(periodEnd) {
			eps = append(eps, Episode{Announce: t})
			return eps
		}
		eps = append(eps, Episode{Announce: t, Withdraw: wd})
		gap := time.Duration(logNormalMedian(r, 120, 0.8, 25, 560) * float64(time.Second))
		t = wd.Add(gap)
		if !t.Before(periodEnd) {
			break
		}
	}
	return eps
}

// buildAttack draws the attack parameters: magnitude, duration, vector
// composition (Table 3 protocol-count distribution), and the reflector
// origin-AS participation that yields Fig 15's skew.
func buildAttack(w *World, r *stats.RNG, clusters *stats.Chooser) *Attack {
	s := w.Cfg.Scale()
	a := &Attack{
		PPS:      logNormalMedian(r, w.Cfg.AttackPPSMedian*s, 1.2, 200*s, w.Cfg.AttackPPSMedian*s*150),
		Duration: time.Duration(logNormalMedian(r, w.Cfg.AttackDurationMedian.Minutes(), 1.1, 4, 720) * float64(time.Minute)),
	}
	nProto := protocolCountDist.Choose(r)
	if nProto == 0 {
		if r.Bool(0.25) {
			a.SYNFlood = true
		} else {
			a.ExtraRandomPort = true
		}
	} else {
		a.Protocols = netgen.PickAmpProtocols(r, nProto)
		a.ExtraRandomPort = r.Bool(0.042)
	}

	// Reflector origin ASes: the popular head participates with fixed
	// per-rank probabilities. The tail clusters behind a handful of
	// transit members per attack — reflector populations are not spread
	// uniformly across the Internet, which is what keeps any single big
	// transit out of most attacks (Fig 15's handover CDF) while still
	// letting the tail span thousands of origin ASes across all attacks.
	if len(a.Protocols) > 0 {
		for rank, p := range popularReflectorParticipation {
			if rank < len(w.RemoteASes) && r.Bool(p) {
				a.OriginASes = append(a.OriginASes, rank)
			}
		}
		tailMean := max(12, w.Cfg.RemoteOriginASes*70/20000)
		cluster := attackCluster(w, r, clusters)
		nTail := int(r.Poisson(float64(tailMean)))
		for i := 0; i < nTail && len(cluster) > 0; i++ {
			cone := cluster[r.Intn(len(cluster))]
			if len(cone) == 0 {
				continue
			}
			a.OriginASes = append(a.OriginASes, cone[r.Intn(len(cone))])
		}
		if len(a.OriginASes) == 0 {
			a.OriginASes = append(a.OriginASes, r.Intn(len(w.RemoteASes)))
		}
	}
	return a
}

// attackCluster draws the transit cones the attack's tail reflectors live
// behind: a few members, drawn from clusters (one entry per member).
func attackCluster(w *World, r *stats.RNG, clusters *stats.Chooser) [][]int {
	cluster := make([][]int, 0, 5)
	for len(cluster) < 5 {
		m := w.Members[clusters.Choose(r)].ASN
		if cone := w.ConeByMember[m]; len(cone) > 0 {
			cluster = append(cluster, cone)
		} else if r.Bool(0.3) {
			break // sparse cones: accept a smaller cluster
		}
	}
	return cluster
}

// planSquatting adds the squatting-protection prefixes. Squatted space is
// by definition unused: the prefixes belong to dedicated victim ASes that
// host nothing, appended to the AS plan here (after hosts were placed).
func planSquatting(w *World, r *stats.RNG) {
	nAS := w.SquatASes
	perAS := (w.SquatPrefix + nAS - 1) / nAS
	count := 0
	for a := 0; a < nAS && count < w.SquatPrefix; a++ {
		vas := len(w.VictimASes)
		w.VictimASes = append(w.VictimASes, VictimAS{
			ASN:     uint32(victimASNBase + vas),
			Peer:    w.Members[r.Intn(w.Cfg.RTBHUsers)].ASN,
			Block:   bgp.MakePrefix(uint32(victimBlockBase+vas<<victimBlockBits), 32-victimBlockBits),
			PDBType: peeringdb.TypeUnknown,
		})
		block := w.VictimASes[vas].Block
		for p := 0; p < perAS && count < w.SquatPrefix; p++ {
			length := uint8(22 + r.Intn(3)) // /22../24
			sub := bgp.MakePrefix(block.Addr+uint32(p)<<(32-length), length)
			start := w.Cfg.Start.Add(time.Duration(r.Float64() * float64(10*24*time.Hour)))
			w.Events = append(w.Events, &Event{
				Class:    ClassSquatting,
				Prefix:   sub,
				Peer:     w.VictimASes[vas].Peer,
				OriginAS: w.VictimASes[vas].ASN,
				Host:     -1,
				Episodes: []Episode{{Announce: start}},
			})
			count++
		}
	}
}

// resolveEventOverlaps separates events on the same prefix by at least six
// hours so that distinct ground-truth events stay distinct under the
// analysis's 10-minute merge threshold.
func resolveEventOverlaps(w *World) {
	byPrefix := make(map[bgp.Prefix][]*Event)
	for _, e := range w.Events {
		byPrefix[e.Prefix] = append(byPrefix[e.Prefix], e)
	}
	const sep = 6 * time.Hour
	for _, evs := range byPrefix {
		if len(evs) < 2 {
			continue
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start().Before(evs[j].Start()) })
		for i := 1; i < len(evs); i++ {
			prevEnd, ok := evs[i-1].End()
			if !ok {
				// Previous event never ends: push this event's start far
				// out; if it falls past the period it simply produces a
				// merged long event, which is harmless but rare.
				prevEnd = w.Cfg.End()
			}
			if evs[i].Start().Before(prevEnd.Add(sep)) {
				shift := prevEnd.Add(sep).Sub(evs[i].Start())
				shiftEvent(evs[i], shift)
			}
		}
	}
	// Drop events pushed (mostly) beyond the period and clamp episodes
	// that a shift moved past the period end.
	kept := w.Events[:0]
	for _, e := range w.Events {
		if !e.Start().Before(w.Cfg.End().Add(-10 * time.Minute)) {
			continue
		}
		eps := e.Episodes[:0]
		for _, ep := range e.Episodes {
			if !ep.Announce.Before(w.Cfg.End()) {
				break
			}
			if !ep.Withdraw.IsZero() && !ep.Withdraw.Before(w.Cfg.End()) {
				ep.Withdraw = time.Time{} // active at period end
			}
			eps = append(eps, ep)
		}
		e.Episodes = eps
		kept = append(kept, e)
	}
	w.Events = kept
	sort.Slice(w.Events, func(i, j int) bool { return w.Events[i].Start().Before(w.Events[j].Start()) })
}

func shiftEvent(e *Event, d time.Duration) {
	for i := range e.Episodes {
		e.Episodes[i].Announce = e.Episodes[i].Announce.Add(d)
		if !e.Episodes[i].Withdraw.IsZero() {
			e.Episodes[i].Withdraw = e.Episodes[i].Withdraw.Add(d)
		}
	}
	if e.Attack != nil {
		e.Attack.Start = e.Attack.Start.Add(d)
	}
}

// assignTargeting marks the events that use targeted (restricted-audience)
// announcements: pervasive for one heavy user during the configured epoch
// (the early-October excursion of Fig 4), near-absent otherwise.
func assignTargeting(w *World, r *stats.RNG) {
	if w.Cfg.TargetedEpochDays <= 0 {
		return
	}
	epochStart := w.Cfg.Start.AddDate(0, 0, w.Cfg.TargetedEpochStartDay)
	epochEnd := epochStart.AddDate(0, 0, w.Cfg.TargetedEpochDays)

	// The designated heavy user: the peer announcing the most events.
	counts := make(map[uint32]int)
	for _, e := range w.Events {
		counts[e.Peer]++
	}
	var heavy uint32
	best := -1
	for peer, c := range counts {
		if c > best || (c == best && peer < heavy) {
			heavy, best = peer, c
		}
	}

	for _, e := range w.Events {
		inEpoch := e.Start().After(epochStart) && e.Start().Before(epochEnd)
		switch {
		// The heavy user restricts the audience of its long-lived
		// protective blackholes; reactive DDoS mitigations go to the
		// full platform (time pressure leaves no room for curation).
		case inEpoch && e.Peer == heavy && e.Class != ClassDDoS:
			e.TargetedExclude = randomPeerSubset(w, r, 0.5)
		case r.Bool(0.002):
			e.TargetedExclude = randomPeerSubset(w, r, 3/float64(len(w.Members)))
		}
	}
}

func randomPeerSubset(w *World, r *stats.RNG, p float64) []uint32 {
	var out []uint32
	for _, m := range w.Members {
		if r.Bool(p) {
			out = append(out, m.ASN)
		}
	}
	return out
}

// buildRegistries constructs the PeeringDB registry and the IP-to-AS
// table from the plan.
func buildRegistries(w *World) {
	pdb := peeringdb.New()
	for _, m := range w.Members {
		if m.PDBType == peeringdb.TypeUnknown {
			continue // absent from PeeringDB
		}
		pdb.Add(peeringdb.Network{ASN: m.ASN, Name: asName("member", m.ASN), Type: m.PDBType, Scp: peeringdb.ScopeEurope})
	}
	for _, v := range w.VictimASes {
		if v.PDBType == peeringdb.TypeUnknown {
			continue
		}
		pdb.Add(peeringdb.Network{ASN: v.ASN, Name: asName("victim", v.ASN), Type: v.PDBType, Scp: peeringdb.ScopeRegional})
	}
	w.PDB = pdb

	tbl := ip2as.New()
	tbl.Grow(len(w.VictimASes) + len(w.RemoteASes))
	for _, v := range w.VictimASes {
		tbl.Add(v.Block, v.ASN)
	}
	for _, rem := range w.RemoteASes {
		tbl.Add(rem.Block, rem.ASN)
	}
	w.IP2AS = tbl
}

func asName(kind string, asn uint32) string {
	return kind + "-as" + strconv.FormatUint(uint64(asn), 10)
}
