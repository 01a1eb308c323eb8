// Parallel execution of the single-pass analysis: flow records fan out in
// batches to N workers, each owning a private shard of every operator;
// after the pass the shards Merge into the exact state the sequential
// pipeline would have produced.
//
// Determinism argument. Every piece of order-sensitive operator state is
// keyed by an address inside a blackholed prefix: anomaly slots by the
// matched prefix, protocol mixes and drop counters by the event (and
// thus its prefix), host profiles by the host address, pending collateral
// cells by the event's prefix. Records are partitioned by the top minLen
// bits of the relevant address, where minLen is the shortest blackhole
// prefix length present — so every address inside any one blackholed
// prefix maps to the same shard, and all records feeding one keyed
// aggregate arrive at one shard in stream order. Shard-local state is
// therefore bit-identical to the sequential operator's state for those
// keys, and Merge is a disjoint map union plus commutative counter sums.
// Records touching destination-keyed and source-keyed state are
// dispatched to both owning shards with a role mask, counted once by the
// destination role. The mitigation tallies are pure commutative sums
// keyed by the mitigated prefix, so they are exact under any partition —
// including FlowSpec-only prefixes absent from the blackhole index that
// decides the partition.
package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/mitigation"
	"repro/internal/ipfix"
	"repro/internal/obs"
)

// keyListCap is the initial capacity of a pooled per-shard key list;
// append grows it to whatever batch size the source delivers.
const keyListCap = 4096

// BatchSource streams pooled record batches to fn, exactly like
// Dataset.EachFlowBatch. The runner retains each batch (per the
// ipfix.RecordBatch contract) until every shard has processed its
// records, so records are dispatched zero-copy.
type BatchSource func(fn ipfix.BatchSink) error

// Shard keys pack a record's index in its batch with the roles the
// record plays at the receiving shard: destination-keyed processing
// (counters, drop/proto/anomaly/align/incoming-host/pending state) and
// source-keyed processing (outgoing-host state).
const (
	keyDst   = 1 << 30
	keySrc   = 1 << 31
	keyIndex = keyDst - 1
)

// shardChunk hands one shared (retained) batch to a shard with the
// packed keys of the records it owns, in stream order.
type shardChunk struct {
	batch *ipfix.RecordBatch
	keys  []uint32
}

// Parallel runs the single-pass analysis across worker-owned operator
// shards. Build with NewParallel, then RunBatches, and read results from
// Pipeline().
type Parallel struct {
	workers int
	// shift positions the shard key at the top minLen bits of an address.
	shift uint
	// merged accumulates the combined state; shards hold per-worker state.
	merged *Pipeline
	shards []*Pipeline

	// obs is the optional instrumentation installed by Instrument.
	obs *parallelObs

	// pool recycles the per-shard key slices of the dispatch path.
	pool sync.Pool
}

// parallelObs is the parallel runner's instrumentation: per-shard record
// counters and busy time (updated by the worker goroutines, hence atomic
// obs values), the dispatcher's split count and blocked time, per-operator
// merge timers, and a merge counter. Everything on the record path is
// accounted per chunk, never per record.
type parallelObs struct {
	shardRecords []*obs.Counter
	shardBusy    []*obs.Gauge
	split        *obs.Counter
	blocked      *obs.Gauge
	mergeTimers  MergeTimers
	merges       obs.Counter
}

// Instrument registers the runner's metrics: the merged pipeline's
// counters (pipeline.*, dropstats.*), one records counter per shard
// (pipeline.shard.NN.records, counting every record role the shard
// processed) and one busy-time gauge per shard
// (pipeline.shard.NN.busy_ns, the time the worker spent observing
// chunks), the dispatcher's pipeline.dispatch.split_records (records
// whose source address belongs to another shard than the destination, so
// that the shard counters sum to pipeline.records.total plus this) and
// pipeline.dispatch.blocked_ns (time the dispatcher waited on a full
// shard channel), the per-operator shard-merge timers (pipeline.merge.*),
// and pipeline.merges, the number of shard merges performed. Busy time
// close to the pass's wall on every shard means the workers are the
// bottleneck; blocked time close to zero with idle shards means the
// dispatcher is. Call before RunBatches.
func (pp *Parallel) Instrument(reg *obs.Registry) {
	pp.merged.RegisterMetrics(reg)
	po := &parallelObs{}
	for i := range pp.shards {
		po.shardRecords = append(po.shardRecords, reg.Counter(fmt.Sprintf("pipeline.shard.%02d.records", i)))
		po.shardBusy = append(po.shardBusy, reg.Gauge(fmt.Sprintf("pipeline.shard.%02d.busy_ns", i)))
	}
	po.split = reg.Counter("pipeline.dispatch.split_records")
	po.blocked = reg.Gauge("pipeline.dispatch.blocked_ns")
	reg.RegisterTimer("pipeline.merge.drop", &po.mergeTimers.Drop)
	reg.RegisterTimer("pipeline.merge.anomaly", &po.mergeTimers.Anomaly)
	reg.RegisterTimer("pipeline.merge.proto", &po.mergeTimers.Proto)
	reg.RegisterTimer("pipeline.merge.hosts", &po.mergeTimers.Hosts)
	reg.RegisterTimer("pipeline.merge.align", &po.mergeTimers.Align)
	reg.RegisterTimer("pipeline.merge.collateral", &po.mergeTimers.Collateral)
	reg.RegisterTimer("pipeline.merge.mitigation", &po.mergeTimers.Mitigation)
	reg.RegisterCounter("pipeline.merges", &po.merges)
	reg.GaugeFunc("pipeline.workers", func() int64 { return int64(pp.workers) })
	pp.obs = po
}

// NewParallel builds a parallel pipeline with the given worker count
// (<= 0 selects runtime.GOMAXPROCS). workers == 1 is valid and useful to
// exercise the batching path; for the plain sequential pipeline use New.
func NewParallel(meta *analysis.Metadata, updates []analysis.ControlUpdate, delta time.Duration, workers int) (*Parallel, error) {
	p, err := New(meta, updates, delta)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pp := &Parallel{
		workers: workers,
		merged:  p,
	}
	if ls := p.Index.Lengths(); len(ls) > 0 {
		pp.shift = uint(32 - ls[len(ls)-1])
	}
	for i := 0; i < workers; i++ {
		pp.shards = append(pp.shards, p.newShard())
	}
	return pp, nil
}

// Workers returns the number of worker shards.
func (pp *Parallel) Workers() int { return pp.workers }

// BindFlow points the merged pipeline and every shard at the FlowSpec
// mitigation view. Call before RunBatches.
func (pp *Parallel) BindFlow(ix *mitigation.Index) {
	pp.merged.BindFlow(ix)
	for _, sh := range pp.shards {
		sh.BindFlow(ix)
	}
}

// Pipeline returns the merged pipeline. Its operators are complete once
// RunBatches returned.
func (pp *Parallel) Pipeline() *Pipeline { return pp.merged }

// shardOf maps an address to its owning shard. Addresses inside the same
// blackholed prefix always collapse to the same key (see the package
// comment), so all state for one prefix/event/host is shard-local.
func (pp *Parallel) shardOf(ip uint32) int {
	key := uint64(ip >> pp.shift)
	// splitmix64 finalizer: spreads adjacent prefixes across shards.
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return int(key % uint64(pp.workers))
}

// RunBatches streams src through the shards and merges the operator
// state into the merged pipeline. Batches are shared with the workers by
// reference — each shard receives the packed indices of the records it
// owns and the batch is released once every owning shard is done — so
// no record is copied on the way to its operators.
func (pp *Parallel) RunBatches(src BatchSource) error {
	if err := pp.runBatches(src); err != nil {
		return err
	}
	var tm *MergeTimers
	if pp.obs != nil {
		tm = &pp.obs.mergeTimers
	}
	for _, sh := range pp.shards {
		pp.merged.merge(sh, tm)
		if pp.obs != nil {
			pp.obs.merges.Inc()
		}
	}
	// Shards are consumed: replace their operators so a later misuse
	// cannot double-count into adopted structures.
	for i, sh := range pp.shards {
		pp.shards[i] = sh.newShard()
	}
	return nil
}

// send hands ck to a shard. When instrumented, a send that finds the
// channel full is timed: the clock is read only when the dispatcher
// actually has to wait.
func (pp *Parallel) send(ch chan<- shardChunk, ck shardChunk) {
	if pp.obs == nil {
		ch <- ck
		return
	}
	select {
	case ch <- ck:
	default:
		start := time.Now()
		ch <- ck
		pp.obs.blocked.Add(int64(time.Since(start)))
	}
}

// runBatches dispatches each batch's records to their owning shards and
// waits for the workers to drain. Per-shard record order equals stream
// order (chunks are sent in batch order, keys within a chunk in record
// order), which the determinism argument relies on.
func (pp *Parallel) runBatches(src BatchSource) error {
	chans := make([]chan shardChunk, pp.workers)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan shardChunk, 4)
		wg.Add(1)
		go func(i int, sh *Pipeline, ch <-chan shardChunk) {
			defer wg.Done()
			po := pp.obs
			for ck := range ch {
				var start time.Time
				if po != nil {
					start = time.Now()
				}
				recs := ck.batch.Recs
				for _, k := range ck.keys {
					rec := &recs[k&keyIndex]
					if k&keyDst != 0 {
						sh.observeDst(rec)
					}
					if k&keySrc != 0 {
						sh.observeSrc(rec)
					}
				}
				if po != nil {
					po.shardRecords[i].Add(int64(len(ck.keys)))
					po.shardBusy[i].Add(int64(time.Since(start)))
				}
				ck.batch.Release()
				pp.pool.Put(ck.keys[:0]) //nolint:staticcheck // slice reuse
			}
		}(i, pp.shards[i], chans[i])
	}

	newKeys := func() []uint32 {
		if ks, ok := pp.pool.Get().([]uint32); ok {
			return ks
		}
		return make([]uint32, 0, keyListCap)
	}
	scratch := make([][]uint32, pp.workers)
	for i := range scratch {
		scratch[i] = newKeys()
	}

	err := src(func(b *ipfix.RecordBatch) error {
		recs := b.Recs
		if len(recs) == 0 {
			return nil
		}
		if len(recs) > keyIndex {
			return fmt.Errorf("pipeline: batch of %d records exceeds dispatch key space", len(recs))
		}
		split := 0
		for i := range recs {
			sd := pp.shardOf(recs[i].DstIP)
			if ss := pp.shardOf(recs[i].SrcIP); ss != sd {
				scratch[sd] = append(scratch[sd], uint32(i)|keyDst)
				scratch[ss] = append(scratch[ss], uint32(i)|keySrc)
				split++
			} else {
				scratch[sd] = append(scratch[sd], uint32(i)|keyDst|keySrc)
			}
		}
		for s, keys := range scratch {
			if len(keys) == 0 {
				continue
			}
			b.Retain()
			pp.send(chans[s], shardChunk{batch: b, keys: keys})
			scratch[s] = newKeys()
		}
		if pp.obs != nil {
			pp.obs.split.Add(int64(split))
		}
		return nil
	})
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	return err
}
