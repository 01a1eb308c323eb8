package scenario

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/fabric"
	"repro/internal/netgen"
	"repro/internal/routeserver"
	"repro/internal/stats"
)

// The generator loop follows one rule per batch: instants are integer
// unix nanoseconds inside this package (fabric.Batch.Time stays a
// time.Time at the Executor boundary), a day is ordered by sorting small
// keys rather than moving batches, a batch finds its transitions by
// binary search, and nothing is allocated per batch. Generation runs one
// day ahead of dispatch, on a goroutine of its own (see Drive).

// attackSlotDuration is the granularity at which attack traffic is
// generated; matching the analysis slot size keeps boundary noise small.
const attackSlotDuration = 5 * time.Minute

const dayNanos = int64(24 * time.Hour)

// controlMsg is one scheduled BGP action.
type controlMsg struct {
	ns       int64 // t in unix nanoseconds, what the day is ordered by
	t        time.Time
	event    *Event
	announce bool
	fs       bool // FlowSpec rule action instead of an RTBH route action
}

// transitions is a sorted table of the instants, in unix nanoseconds, at
// which mitigation state may change; duplicates are allowed. Batches are
// split at them so that every emitted segment sees one forwarding
// decision throughout.
type transitions []int64

// after returns the number of transitions at or before ns: the index of
// the first one strictly later.
func (tr transitions) after(ns int64) int {
	lo, hi := 0, len(tr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tr[mid] <= ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// eventTransitions builds the table of e's own mitigation actions.
func eventTransitions(e *Event) transitions {
	var tr transitions
	e.actions(func(t time.Time, _, _ bool) { tr = append(tr, t.UnixNano()) })
	slices.Sort(tr)
	return tr
}

// attackPlan is what the generator keeps per attack event for the run.
type attackPlan struct {
	e *Event
	// tr are the event's own transitions: they bound drop-decision error,
	// so attack slots are split at them like baseline batches.
	tr         transitions
	start, end int64 // attack traffic runs over [start, end)
	mitigated  int64 // first mitigation action
	// vectors are built on the attack's first day and released after its
	// last, which bounds reflector-pool memory.
	vectors []netgen.Vector
	built   bool
	lastDay int
}

// dayKey stands in for one of the day's batches while the day is put in
// order: 16 bytes move instead of the batch's 112. The order is by start
// instant and, among equal instants, by emission ordinal — what a stable
// sort of the batches themselves would give. The fabric's random draws
// follow dispatch order, so how ties fall decides archive bytes.
type dayKey struct {
	ns  int64 // batch start, unix nanoseconds
	idx int32 // position in the day's emission order
}

// blockBits sizes the blocks a day's batches are kept in: 1<<blockBits
// batches each, about half a megabyte. A day grows by whole blocks, so
// it never copies what it holds, and blocks pass from a dispatched day
// to the next one generated.
const blockBits = 12

// dayBuf is one generated day on its way to the executor. Batch i of the
// day, in emission order, is blocks[i>>blockBits][i&(1<<blockBits-1)].
type dayBuf struct {
	blocks [][]fabric.Batch
	n      int      // batches held
	keys   []dayKey // in emission order while generating, then in dispatch order
	splits int64    // how many of the batches are pieces of a cut batch
	ctl    []controlMsg
	// upds[i] is the UPDATE of ctl[i], built in dispatch order right
	// after the day's batches. When building one failed, upds stops
	// short of it and err is why.
	upds []*bgp.Update
	err  error
}

func (db *dayBuf) batch(idx int32) *fabric.Batch {
	return &db.blocks[idx>>blockBits][idx&(1<<blockBits-1)]
}

// sortKeys puts a day's keys, given in emission order, in dispatch order,
// with spare as the second buffer, and returns the buffer left over. It
// is an LSD radix sort over the start instants: every pass is a counting
// sort by one digit, which keeps keys of equal digit in the order they
// came in — so equal instants end up in emission order without the
// ordinal ever being compared.
func sortKeys(keys, spare []dayKey) (order, left []dayKey) {
	const digitBits = 12
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range keys {
		lo, hi = min(lo, k.ns), max(hi, k.ns)
	}
	spare = slices.Grow(spare[:0], len(keys))[:len(keys)]
	for shift := 0; shift < 64 && uint64(hi-lo)>>shift != 0; shift += digitBits {
		var next [1 << digitBits]int32 // per digit: count, then next output position
		for _, k := range keys {
			next[uint64(k.ns-lo)>>shift&(1<<digitBits-1)]++
		}
		pos := int32(0)
		for d, n := range next {
			next[d] = pos
			pos += n
		}
		for _, k := range keys {
			d := uint64(k.ns-lo) >> shift & (1<<digitBits - 1)
			spare[next[d]] = k
			next[d]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
}

// driver is the state of one Drive call: the per-run indexes built up
// front and the generator's scratch. Everything but ex and st belongs
// to the generating goroutine; those two belong to the dispatching one.
type driver struct {
	w   *World
	ex  Executor
	st  *DriveStats
	gen *stats.RNG // the one stream generation and control updates share

	ctlByDay     [][]controlMsg
	attacksByDay [][]*attackPlan
	// hosts holds, per host, the instants at which the blackholing state
	// of its address may change: besides the host's own /32 events,
	// covering shorter-prefix events (a /24 blackhole blankets every host
	// in the subnet) contribute transitions too.
	hosts []transitions

	batches []fabric.Batch   // the group being generated: a host-day, an attack slot
	uncut   []fabric.Batch   // the group moved out to be split
	splits  int64            // pieces of cut batches in the day being generated
	spare   []dayKey         // the radix sort's second buffer
	blocks  [][]fabric.Batch // blocks no day holds
	waited  time.Duration    // how long generation waited for a free day
}

// Drive walks the planned world's total event order and dispatches every
// action to the executor created by build. The RNG substream handed to
// build is the exact fork RunFederated's fabrics sample from, so an
// executor over a fabric built with it (fabric.New, for a hand-wired
// single one) reproduces its data plane bit-identically; the control
// updates Drive builds are the same for every executor. RunFederated is
// the executor every product run uses; the benchmark harness drives its
// own instrumented one.
//
// Drive is a two-stage pipeline over two day buffers: a goroutine
// generates day d+1 — batches, dispatch order, control UPDATEs — while
// the calling goroutine hands day d to the executor, so every executor
// call is made on the caller's goroutine, in the order and with the
// arguments of a serial walk. The generating goroutine has ended when
// Drive returns.
//
// When an executor call fails mid-walk (including a cancelled live run),
// Drive returns the stats of the actions dispatched so far alongside the
// error, so interrupted runs can still report what was delivered.
func Drive(w *World, build func(fabricRNG *stats.RNG) (Executor, error)) (*DriveStats, error) {
	rng := stats.NewRNG(w.Cfg.Seed ^ 0x52554e)
	ex, err := build(rng.Fork(1))
	if err != nil {
		return nil, err
	}
	dr := newDriver(w, ex, rng)
	// Each channel can hold both day buffers, so no send blocks.
	free, ready := make(chan *dayBuf, 2), make(chan *dayBuf, 2)
	free <- &dayBuf{}
	free <- &dayBuf{}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		dr.produce(free, ready, stop)
	}()
	defer func() {
		close(stop)
		<-done
		dr.st.GenerateWait = dr.waited
	}()
	for {
		start := time.Now()
		db, ok := <-ready
		dr.st.DispatchWait += time.Since(start)
		if !ok {
			return dr.st, nil
		}
		if err := dr.deliver(db); err != nil {
			return dr.st, err
		}
		free <- db
	}
}

// produce generates the days in turn, each into a buffer dispatch has
// freed, and hands them over on ready, which it closes when done. It
// stops early when stop closes or when building a day's UPDATE failed:
// dispatch ends at that message.
func (dr *driver) produce(free <-chan *dayBuf, ready chan<- *dayBuf, stop <-chan struct{}) {
	defer close(ready)
	for d := 0; d < dr.w.Cfg.Days; d++ {
		start := time.Now()
		var db *dayBuf
		select {
		case db = <-free:
		case <-stop:
			return
		}
		dr.waited += time.Since(start)
		select {
		case <-stop:
			return
		default:
		}
		dr.fill(d, db)
		db.keys, dr.spare = sortKeys(db.keys, dr.spare)
		dr.buildControl(d, db)
		ready <- db
		if db.err != nil {
			return
		}
	}
}

// newDriver indexes the world by day and by host. It forks the session
// reset stream and then the generator stream from rng, in that order.
func newDriver(w *World, ex Executor, rng *stats.RNG) *driver {
	days := w.Cfg.Days
	dr := &driver{
		w: w, ex: ex, st: &DriveStats{},
		ctlByDay:     make([][]controlMsg, days),
		attacksByDay: make([][]*attackPlan, days),
		hosts:        make([]transitions, len(w.Hosts)),
	}
	for _, e := range w.Events {
		e.actions(func(t time.Time, announce, fs bool) { dr.schedule(t, e, announce, fs) })
	}
	dr.addSessionResets(rng.Fork(3))
	dr.gen = rng.Fork(2)

	for _, e := range w.Events {
		if e.Attack == nil {
			continue
		}
		a := &attackPlan{
			e: e, tr: eventTransitions(e),
			start: e.Attack.Start.UnixNano(), end: e.Attack.End().UnixNano(),
			mitigated: e.Start().UnixNano(),
			lastDay:   dr.dayIndex(e.Attack.End()),
		}
		for d := dr.dayIndex(e.Attack.Start); d <= a.lastDay; d++ {
			dr.attacksByDay[d] = append(dr.attacksByDay[d], a)
		}
	}
	dr.hostTransitions()
	return dr
}

// dayIndex returns the day of the period t falls on, clamped to it.
func (dr *driver) dayIndex(t time.Time) int {
	d := int(t.Sub(dr.w.Cfg.Start) / (24 * time.Hour))
	return max(0, min(d, dr.w.Cfg.Days-1))
}

// schedule queues one BGP action on the day it falls on.
func (dr *driver) schedule(t time.Time, e *Event, announce, fs bool) {
	d := dr.dayIndex(t)
	dr.ctlByDay[d] = append(dr.ctlByDay[d],
		controlMsg{ns: t.UnixNano(), t: t, event: e, announce: announce, fs: fs})
}

// hostTransitions fills every host's transition table.
func (dr *driver) hostTransitions() {
	w := dr.w
	add := func(host int, e *Event) {
		tr := &dr.hosts[host]
		e.actions(func(t time.Time, _, _ bool) { *tr = append(*tr, t.UnixNano()) })
	}
	var wide []*Event // events on prefixes shorter than /32
	for _, e := range w.Events {
		if e.Prefix.Len < 32 {
			wide = append(wide, e)
		}
		if e.Host >= 0 && e.Prefix.Len == 32 {
			add(e.Host, e)
		}
	}
	for hi, h := range w.Hosts {
		for _, e := range wide {
			if e.Prefix.Contains(h.IP) {
				add(hi, e)
			}
		}
		slices.Sort(dr.hosts[hi])
	}
}

// fill generates day d's batches into db in emission order, with their
// keys, on the blocks db held before.
func (dr *driver) fill(d int, db *dayBuf) {
	dayStart := dr.w.Cfg.Start.AddDate(0, 0, d)
	dr.blocks = append(dr.blocks, db.blocks...)
	clear(db.blocks)
	db.blocks, db.n, db.keys = db.blocks[:0], 0, db.keys[:0]
	dr.open(db)
	dr.baseline(d, dayStart, db)
	dr.attacks(d, dayStart, db)
	dr.internal(dayStart, db)
	db.splits, dr.splits = dr.splits, 0
}

// open points dr.batches at the free tail of the day's last block, taking
// a free block when that one is full: the next group is generated in
// place.
func (dr *driver) open(db *dayBuf) {
	if db.n == len(db.blocks)<<blockBits {
		var blk []fabric.Batch
		if n := len(dr.blocks); n > 0 {
			blk, dr.blocks = dr.blocks[n-1], dr.blocks[:n-1]
		} else {
			blk = make([]fabric.Batch, 1<<blockBits)
		}
		db.blocks = append(db.blocks, blk)
	}
	off := db.n & (1<<blockBits - 1)
	dr.batches = db.blocks[len(db.blocks)-1][off:off]
}

// keep adds the finished group in dr.batches to the day and opens the
// next one. A group that outgrew its block's tail was moved by append;
// it is copied back across the block boundary.
func (dr *driver) keep(db *dayBuf) {
	g := dr.batches
	if len(g) > 0 && &g[0] != db.batch(int32(db.n)) {
		for len(g) > 0 {
			dr.open(db)
			c := copy(dr.batches[:cap(dr.batches)], g)
			dr.batches = dr.batches[:c]
			dr.key(db)
			g = g[c:]
		}
	} else {
		dr.key(db)
	}
	dr.open(db)
}

// key appends the keys of the group in dr.batches, which sits in place at
// the end of the day, and counts it in.
func (dr *driver) key(db *dayBuf) {
	for i := range dr.batches {
		db.keys = append(db.keys, dayKey{ns: dr.batches[i].Time.UnixNano(), idx: int32(db.n + i)})
	}
	db.n += len(dr.batches)
}

// buildControl builds the UPDATEs of day d's control messages in
// dispatch order, drawing from the generator stream where the serial walk
// drew them: after the day's batches, before the next day's.
func (dr *driver) buildControl(d int, db *dayBuf) {
	db.ctl = dr.ctlByDay[d]
	slices.SortStableFunc(db.ctl, func(a, b controlMsg) int { return cmp.Compare(a.ns, b.ns) })
	clear(db.upds)
	db.upds, db.err = db.upds[:0], nil
	for i := range db.ctl {
		upd, err := buildControlUpdate(&db.ctl[i], dr.gen)
		if err != nil {
			db.err = err
			return
		}
		db.upds = append(db.upds, upd)
	}
}

// deliver hands a generated day's control messages and batches to the
// executor in chronological order. The day's generator counts are folded
// in first, as the serial walk counted them before its first call.
func (dr *driver) deliver(db *dayBuf) error {
	dr.st.SplitSegments += db.splits
	dr.st.MaxDayBatches = max(dr.st.MaxDayBatches, db.n)
	ci := 0
	for _, k := range db.keys {
		// Control messages win ties so that a batch starting exactly at
		// an announcement sees the new state.
		for ; ci < len(db.ctl) && db.ctl[ci].ns <= k.ns; ci++ {
			if err := dr.control(db, ci); err != nil {
				return err
			}
		}
		if err := dr.ex.Inject(db.batch(k.idx)); err != nil {
			return err
		}
		dr.st.Batches++
	}
	for ; ci < len(db.ctl); ci++ {
		if err := dr.control(db, ci); err != nil {
			return err
		}
	}
	return nil
}

// control delivers the day's i-th scheduled UPDATE, or returns the error
// building it failed with.
func (dr *driver) control(db *dayBuf, i int) error {
	if i == len(db.upds) {
		return db.err
	}
	cm := &db.ctl[i]
	if err := dr.ex.Control(cm.t, cm.event.Peer, db.upds[i]); err != nil {
		return err
	}
	switch {
	case cm.fs: // FlowSpec rule actions are not RTBH updates
	case cm.announce:
		dr.st.Announcements++
	default:
		dr.st.Withdrawals++
	}
	return nil
}

// buildControlUpdate constructs the announce/withdraw UPDATE of one
// scheduled control message, consuming the shared generator stream.
// FlowSpec actions are wrapped as plain UPDATEs (MP attributes, no IPv4
// NLRI) and draw nothing from the stream.
func buildControlUpdate(cm *controlMsg, r *stats.RNG) (*bgp.Update, error) {
	e := cm.event
	if cm.fs {
		fsu := &bgp.FlowSpecUpdate{}
		if cm.announce {
			fsu.Announced = []*bgp.FlowRule{e.FlowSpec.Rule}
			fsu.ExtComms = []bgp.ExtCommunity{bgp.TrafficRateDiscard}
		} else {
			fsu.Withdrawn = []*bgp.FlowRule{e.FlowSpec.Rule}
		}
		return bgp.UpdateFromFlowSpec(fsu)
	}
	upd := &bgp.Update{}
	if cm.announce {
		comms := make(bgp.Communities, 1, 2+len(e.TargetedExclude))
		comms[0] = bgp.Blackhole
		if r.Bool(0.5) {
			comms = append(comms, bgp.NoExport)
		}
		for _, excl := range e.TargetedExclude {
			comms = append(comms, bgp.MakeCommunity(0, uint16(excl)))
		}
		path := make([]uint32, 1, 2)
		path[0] = e.Peer
		if e.OriginAS != e.Peer {
			path = append(path, e.OriginAS)
		}
		upd.Attrs = bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      path,
			NextHop:     routeserver.BlackholeNextHop,
			Communities: comms,
		}
		upd.NLRI = []bgp.Prefix{e.Prefix}
	} else {
		upd.Withdrawn = []bgp.Prefix{e.Prefix}
	}
	return upd, nil
}

// splitBatch appends b to dst, cut at every transition strictly inside
// [b.Time, b.Time+b.Duration), dividing the packet count proportionally
// to sub-interval duration; pieces left without packets are dropped. A
// batch no transition touches is appended unchanged. b must not point
// into dst.
func splitBatch(dst []fabric.Batch, b *fabric.Batch, tr transitions) []fabric.Batch {
	start := b.Time.UnixNano()
	end := start + int64(b.Duration)
	k := tr.after(start)
	if k == len(tr) || tr[k] >= end {
		return append(dst, *b)
	}
	total := float64(b.Duration)
	remaining := b.Packets
	for prev := start; ; k++ {
		segEnd, last := end, true
		if k < len(tr) && tr[k] < end {
			segEnd, last = tr[k], false
		}
		dur := time.Duration(segEnd - prev)
		packets := remaining
		if !last {
			packets = int64(float64(b.Packets) * float64(dur) / total)
		}
		remaining -= packets
		if packets > 0 && dur > 0 {
			dst = append(dst, *b)
			seg := &dst[len(dst)-1]
			seg.Time = b.Time.Add(time.Duration(prev - start))
			seg.Duration = dur
			seg.Packets = packets
		}
		if last {
			return dst
		}
		prev = segEnd
	}
}

// split cuts the group the generator just built, dr.batches, at tr.
// Its batches all lie within [from, to): when no transition falls inside
// that window they stay where they are, and only otherwise are they
// moved out and put back through splitBatch.
func (dr *driver) split(tr transitions, from, to int64) {
	k := tr.after(from)
	if k == len(tr) || tr[k] >= to {
		return
	}
	dr.uncut = append(dr.uncut[:0], dr.batches...)
	dr.batches = dr.batches[:0]
	for i := range dr.uncut {
		n := len(dr.batches)
		dr.batches = splitBatch(dr.batches, &dr.uncut[i], tr)
		if n = len(dr.batches) - n; n > 1 {
			dr.splits += int64(n)
		}
	}
}

// baseline emits the legitimate and scan traffic of all hosts active on
// day d, split at blackholing transitions.
func (dr *driver) baseline(d int, dayStart time.Time, db *dayBuf) {
	w, r := dr.w, dr.gen
	dayNs := dayStart.UnixNano()
	for hi, h := range w.Hosts {
		if d >= len(h.ActiveDays) {
			continue
		}
		if h.ActiveDays[d] {
			switch {
			case h.Server != nil:
				dr.batches = h.Server.DayBatches(dr.batches, dayStart, w.RemotePool, r)
			case h.Client != nil:
				dr.batches = h.Client.DayBatches(dr.batches, dayStart, w.RemotePool, r)
			default:
				// A quiet host's stray active day: a trickle of traffic.
				peer := w.VictimASes[h.VictimAS].Peer
				dr.batches = append(dr.batches, fabric.Batch{
					Time: dayStart, Duration: 24 * time.Hour,
					IngressAS: w.RemotePool.Handover(r), EgressAS: peer,
					SrcIP: w.RemotePool.Addr(r), DstIP: h.IP,
					SrcPort: 443, DstPort: netgen.EphemeralPort(r),
					Proto: netgen.ProtoTCP, PacketSize: 600,
					Packets: 2000 + r.Int63n(8000),
				})
			}
		}
		if h.ScanDailyPackets > 0 && r.Bool(0.3) {
			peer := w.VictimASes[h.VictimAS].Peer
			dr.batches = netgen.ScanBatches(dr.batches, dayStart, h.IP, peer, h.ScanDailyPackets, w.RemotePool, r)
		}
		// All of a host's traffic — inbound, outbound, scans — anchors to
		// the member announcing the host's prefix: in a federated run the
		// host is observable exactly where its member connects.
		owner := w.VictimASes[h.VictimAS].Peer
		for i := range dr.batches {
			dr.batches[i].Owner = owner
		}
		// netgen keeps every baseline batch inside the day it is for.
		dr.split(dr.hosts[hi], dayNs, dayNs+dayNanos)
		dr.keep(db)
	}
}

// attacks emits the attack traffic slots of day d.
func (dr *driver) attacks(d int, dayStart time.Time, db *dayBuf) {
	w, r := dr.w, dr.gen
	dayNs := dayStart.UnixNano()
	for _, a := range dr.attacksByDay[d] {
		e := a.e
		if !a.built {
			a.vectors, a.built = buildVectors(w, e, r), true
		}
		vs := a.vectors
		if a.lastDay == d {
			a.vectors = nil
		}
		if len(vs) == 0 {
			continue
		}
		victimIP := w.VictimAddr(e)
		victimAS := e.Peer
		end := min(a.end, dayNs+dayNanos)
		// Bilateral (non-route-server) blackholing is an agreement with a
		// single neighbor: one designated handover member drops the
		// event's traffic regardless of route-server state.
		var bilateralAS uint32
		for t := max(a.start, dayNs); t < end; t += int64(attackSlotDuration) {
			slotEnd := min(t+int64(attackSlotDuration), end)
			pps := e.Attack.PPS * (0.8 + 0.4*r.Float64())
			perVector := pps / float64(len(vs))
			for _, v := range vs {
				dr.batches = v.Batches(dr.batches, dayStart.Add(time.Duration(t-dayNs)),
					time.Duration(slotEnd-t), perVector, victimIP, victimAS, r)
			}
			slot := dr.batches
			if e.Bilateral && bilateralAS == 0 && len(slot) > 0 {
				bilateralAS = slot[0].IngressAS
			}
			// The bilateral neighbor reacts like the victim does: its
			// dropping starts with the first announcement, not with the
			// attack itself.
			bilateralLive := e.Bilateral && t >= a.mitigated
			for i := range slot {
				b := &slot[i]
				b.Owner = victimAS
				if bilateralLive && b.IngressAS == bilateralAS {
					b.BilateralDropFraction = 1
				}
			}
			dr.split(a.tr, t, slotEnd)
			dr.keep(db)
		}
	}
}

// VictimAddr returns the concrete attacked address of an event: the host
// address, or an address inside the prefix for hostless events.
func (w *World) VictimAddr(e *Event) uint32 {
	if e.Host >= 0 {
		return w.Hosts[e.Host].IP
	}
	return e.Prefix.Addr + 1
}

// buildVectors materializes the attack's vector set: reflector pools per
// origin AS for amplification, and transit handovers for direct floods.
func buildVectors(w *World, e *Event, r *stats.RNG) []netgen.Vector {
	a := e.Attack
	var out []netgen.Vector

	if len(a.Protocols) > 0 {
		nAmp := int(r.Poisson(float64(w.Cfg.MeanAmplifiersPerAttack)))
		if nAmp < len(a.OriginASes) {
			nAmp = len(a.OriginASes)
		}
		perAS := nAmp / len(a.OriginASes)
		if perAS == 0 {
			perAS = 1
		}
		var pool []netgen.Reflector
		for _, asIdx := range a.OriginASes {
			ras := w.RemoteASes[asIdx]
			for i := 0; i < perAS; i++ {
				ip := ras.Block.Addr + uint32(r.Int63n(int64(ras.Block.NumAddresses())))
				pool = append(pool, netgen.Reflector{IP: ip, OriginAS: ras.ASN, HandoverAS: ras.Handover})
			}
		}
		for _, proto := range a.Protocols {
			out = append(out, &netgen.AmplificationVector{Protocol: proto, Reflectors: pool})
		}
	}

	transit := make([]uint32, 0, 3)
	for i := 0; i < 3 && i < len(w.RemotePool.Handovers); i++ {
		transit = append(transit, w.RemotePool.Handovers[r.Intn(len(w.RemotePool.Handovers))])
	}
	if a.SYNFlood {
		out = append(out, &netgen.SYNFloodVector{Handovers: transit, DstPorts: []uint16{80, 443}})
	}
	if a.ExtraRandomPort {
		if r.Bool(0.5) {
			out = append(out, &netgen.RandomPortUDPVector{Handovers: transit})
		} else {
			out = append(out, &netgen.RotatingPortVector{Handovers: transit})
		}
	}
	return out
}

// internal emits the small share of IXP-internal flows that the paper
// removes during data cleaning.
func (dr *driver) internal(dayStart time.Time, db *dayBuf) {
	w, r := dr.w, dr.gen
	if w.Cfg.InternalTrafficShare <= 0 {
		return
	}
	// Rough daily packet volume of the relevant traffic, from which the
	// internal share is derived.
	busy := len(w.Hosts) / 3
	daily := float64(busy) * 2 * float64(w.Cfg.BaselineDailyPackets) * w.Cfg.Scale()
	pkts := int64(daily * w.Cfg.InternalTrafficShare)
	// Keep internal traffic visible even in miniature test worlds: at
	// least ~0.4 expected samples per day.
	if floor := 2 * w.Cfg.SamplingRate / 5; pkts < floor {
		pkts = floor
	}
	for i := 0; i < 2; i++ {
		m := w.Members[r.Intn(len(w.Members))].ASN
		dr.batches = append(dr.batches, fabric.Batch{
			Time: dayStart.Add(time.Duration(i) * 12 * time.Hour), Duration: 12 * time.Hour,
			IngressAS: m,
			EgressAS:  0,
			Owner:     m,
			SrcIP:     w.RSIP, DstIP: w.RSIP + 1,
			SrcPort: 179, DstPort: netgen.EphemeralPort(r),
			Proto: netgen.ProtoTCP, PacketSize: 100,
			Packets:  pkts / 2,
			Internal: true,
		})
	}
	dr.keep(db)
}

// addSessionResets injects BGP session flaps: a handful of times over the
// period, one of the heaviest RTBH users re-announces its entire active
// blackhole set within a minute. These bursts produce the message-rate
// spikes of the paper's Fig 3 while leaving event structure untouched
// (re-announcements of active routes merge into the same event).
func (dr *driver) addSessionResets(r *stats.RNG) {
	w := dr.w
	// The three peers with the most events are reset candidates.
	counts := make(map[uint32]int)
	for _, e := range w.Events {
		counts[e.Peer]++
	}
	type pc struct {
		peer uint32
		n    int
	}
	var peers []pc
	for p, n := range counts {
		peers = append(peers, pc{p, n})
	}
	sort.Slice(peers, func(i, j int) bool {
		if peers[i].n != peers[j].n {
			return peers[i].n > peers[j].n
		}
		return peers[i].peer < peers[j].peer
	})
	if len(peers) > 3 {
		peers = peers[:3]
	}
	if len(peers) == 0 {
		return
	}

	period := w.Cfg.End().Sub(w.Cfg.Start)
	nResets := max(2, w.Cfg.Days/15)
	for i := 0; i < nResets; i++ {
		peer := peers[r.Intn(len(peers))].peer
		// Leave margin at the period edges.
		at := w.Cfg.Start.Add(time.Duration(0.05*float64(period)) +
			time.Duration(r.Float64()*0.9*float64(period)))
		for _, e := range w.Events {
			if e.Peer != peer {
				continue
			}
			// Re-announce only routes solidly inside an active episode.
			for _, ep := range e.Episodes {
				wd := ep.Withdraw
				if wd.IsZero() {
					wd = w.Cfg.End()
				}
				if !at.After(ep.Announce) || !at.Add(2*time.Minute).Before(wd) {
					continue
				}
				t := at.Add(time.Duration(r.Int63n(int64(50 * time.Second))))
				dr.schedule(t, e, true, false)
				break
			}
		}
	}
}
