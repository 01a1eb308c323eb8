package main

import (
	"sort"
	"time"
)

// refRecord is one synthetic record of the reference kernel.
type refRecord struct {
	src, dst     uint32
	sport, dport uint16
	bytes        uint32
}

type refPair struct{ src, dst uint32 }

type refAgg struct {
	pkts, bytes uint64
	ports       []uint16
}

// refKernel is a fixed piece of work shaped like the program's hot path —
// hash-map aggregation keyed by addresses over a record stream, small
// allocations, a final sort — but written here and frozen, so that no
// change to the program changes it. Timing it next to a measurement tells
// how fast the machine was at that moment.
type refKernel struct {
	recs []refRecord
}

const (
	refRecords = 250_000
	refDsts    = 40_000
)

// refNominal is what one kernel run takes on the machine the first
// results were recorded on (2 vCPU Xeon 2.1 GHz, go1.24) while nothing
// disturbs it. Normalised seconds are seconds on that machine in that
// state.
const refNominal = 80 * time.Millisecond

func newRefKernel() *refKernel {
	k := &refKernel{recs: make([]refRecord, refRecords)}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.recs {
		v := next()
		k.recs[i] = refRecord{
			src:   uint32(v >> 32),
			dst:   uint32(v) % refDsts * 2654435761,
			sport: uint16(v >> 20),
			dport: uint16(v >> 40 & 0x3ff),
			bytes: 64 + uint32(v>>50),
		}
	}
	return k
}

var refSink uint64

// run executes the kernel once and returns how long it took.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	byDst := make(map[uint32]*refAgg)
	byPair := make(map[refPair]uint64)
	for i := range k.recs {
		r := &k.recs[i]
		a := byDst[r.dst]
		if a == nil {
			a = &refAgg{}
			byDst[r.dst] = a
		}
		a.pkts++
		a.bytes += uint64(r.bytes)
		if i&7 == 0 {
			a.ports = append(a.ports, r.dport)
		}
		byPair[refPair{r.src >> 12, r.dst}] += uint64(r.bytes)
	}
	top := make([]uint64, 0, len(byDst))
	for _, a := range byDst {
		top = append(top, a.bytes)
	}
	sort.Slice(top, func(i, j int) bool { return top[i] > top[j] })
	refSink += top[0] + uint64(len(byPair))
	return time.Since(start)
}
