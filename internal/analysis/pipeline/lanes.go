// The pass spread over goroutines: the source goroutine attributes each
// batch once, then every operator feed (see feeds) walks it on a goroutine
// of its own. Each operator still sees the whole stream in stream order,
// so its state is the inline pass's by construction: nothing is
// partitioned and nothing merged afterwards.
package pipeline

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/mitigation"
	"repro/internal/ipfix"
	"repro/internal/obs"
)

const (
	// laneRing is how many attributed batches may be in flight between
	// the source and the slowest feed: slack for a feed that is slow on
	// one stretch of the stream (one victim's attack, one host's day),
	// while the batches it keeps from the pool stay a few megabytes.
	laneRing = 16
	// laneBlock is the longest run of records one ring slot carries; an
	// archived IPFIX message (at most 1,337 records) always fits.
	laneBlock = 2048
)

// laneBatch is one ring slot: a run of records, their side array and how
// many feeds have yet to walk it. The last one done frees the slot and
// drops its records, so an idle ring holds no batch the pool got back.
type laneBatch struct {
	recs  []ipfix.FlowRecord
	at    []attr
	owner *ipfix.RecordBatch // holds recs (retained for the feeds), or nil
	left  atomic.Int32
}

// Lanes drives a pipeline's pass with one goroutine per operator feed. Its
// Observe methods are the pipeline's own, to be called from one goroutine;
// the operators are complete once Close has returned. The ring is the
// pipeline's (Pipeline.ring): every slot is back on it by then, for the
// next pass to reuse.
type Lanes struct {
	p    *Pipeline
	free chan *laneBatch // the idle ring slots (p.ring); nil when the pass runs inline
	in   [nFeeds]chan *laneBatch
	wg   sync.WaitGroup
}

// StartLanes starts the feed goroutines of a pass over p — none with
// inline set or with a single processor to schedule them on: the Lanes
// then observes on the caller through p.ObserveRecords. Until Close, p
// must be observed through the returned Lanes only.
func (p *Pipeline) StartLanes(inline bool) *Lanes {
	if inline || runtime.GOMAXPROCS(0) == 1 {
		return &Lanes{p: p}
	}
	return p.startLanes()
}

func (p *Pipeline) startLanes() *Lanes {
	if p.ring == nil {
		p.ring = make(chan *laneBatch, laneRing)
		for i := 0; i < laneRing; i++ {
			p.ring <- &laneBatch{at: make([]attr, laneBlock)}
		}
	}
	l := &Lanes{p: p, free: p.ring}
	for i := range l.in {
		// Room for every slot of the ring: handing a batch to a feed never
		// blocks, the free list alone bounds what is in flight.
		l.in[i] = make(chan *laneBatch, laneRing)
		l.wg.Add(1)
		go l.run(i)
	}
	return l
}

// run is feed i's goroutine: it ends when Close closes its channel. It
// runs under the pprof label lane=<feed name>, so that a CPU profile
// splits by lane (go tool pprof -tagfocus lane=hosts).
func (l *Lanes) run(i int) {
	defer l.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("lane", feeds[i].name), func(context.Context) {
		for b := range l.in[i] {
			l.p.feed(i, b.recs, b.at[:len(b.recs)])
			if b.left.Add(-1) == 0 {
				if b.owner != nil {
					b.owner.Release()
				}
				b.recs, b.owner = nil, nil
				l.free <- b
			}
		}
	})
}

// ObserveBatch observes one pooled record batch, retaining it (per the
// ipfix.RecordBatch contract) until the last feed is done with it.
func (l *Lanes) ObserveBatch(b *ipfix.RecordBatch) { l.observe(b.Recs, b) }

// ObserveRecords observes recs, which the caller keeps alive and
// unchanged until Close returns.
func (l *Lanes) ObserveRecords(recs []ipfix.FlowRecord) { l.observe(recs, nil) }

func (l *Lanes) observe(recs []ipfix.FlowRecord, owner *ipfix.RecordBatch) {
	if l.free == nil {
		l.p.ObserveRecords(recs)
		return
	}
	for len(recs) > 0 {
		n := min(len(recs), laneBlock)
		b := l.slot()
		b.recs, b.owner = recs[:n], owner
		l.p.attribute(b.recs, b.at[:n])
		if owner != nil {
			owner.Retain()
		}
		b.left.Store(nFeeds)
		for i := range l.in {
			l.in[i] <- b
		}
		recs = recs[n:]
	}
}

// slot takes a free ring slot, waiting for the slowest feed when all are
// in flight; when instrumented, the clock is read only for such a wait.
func (l *Lanes) slot() *laneBatch {
	if l.p.obs == nil {
		return <-l.free
	}
	select {
	case b := <-l.free:
		return b
	default:
	}
	start := time.Now()
	b := <-l.free
	l.p.obs.blocked.Add(int64(time.Since(start)))
	return b
}

// Close waits until every feed has walked every observed batch — each
// retained batch is released by then — and ends the feed goroutines.
func (l *Lanes) Close() {
	if l.free == nil {
		return
	}
	for i := range l.in {
		close(l.in[i])
	}
	l.wg.Wait()
}

// BatchSource streams pooled record batches to fn, exactly like
// Dataset.EachFlowBatch.
type BatchSource func(fn ipfix.BatchSink) error

// Parallel is the batch driver: a pipeline over a complete update stream
// and one pass over a BatchSource, read back through Pipeline().
type Parallel struct {
	p      *Pipeline
	inline bool
}

// NewParallel builds the batch pipeline. workers == 1 runs the pass on
// the calling goroutine; any other count runs it through Lanes, one
// goroutine per operator however large the count.
func NewParallel(meta *analysis.Metadata, updates []analysis.ControlUpdate, delta time.Duration, workers int) (*Parallel, error) {
	p, err := New(meta, updates, delta)
	if err != nil {
		return nil, err
	}
	return &Parallel{p: p, inline: workers == 1}, nil
}

// BindFlow points the pipeline at the FlowSpec mitigation view.
func (pp *Parallel) BindFlow(ix *mitigation.Index) { pp.p.BindFlow(ix) }

// Instrument registers the pipeline's metrics (Pipeline.RegisterMetrics).
func (pp *Parallel) Instrument(reg *obs.Registry) { pp.p.RegisterMetrics(reg) }

// Pipeline returns the pipeline, complete once RunBatches has returned.
func (pp *Parallel) Pipeline() *Pipeline { return pp.p }

// RunBatches streams src through the pipeline. A source error ends the
// pass and is returned once the feeds have drained what came before it.
func (pp *Parallel) RunBatches(src BatchSource) error {
	l := pp.p.StartLanes(pp.inline)
	defer l.Close()
	return src(func(b *ipfix.RecordBatch) error {
		l.ObserveBatch(b)
		return nil
	})
}
