package stats

import "math"

// EWMA implements the exponentially weighted moving average detector used
// by the paper (§5.3): a sliding window of Window slots, decay parameter
// alpha = 2/(span+1), weights w_i = (1-alpha)^i with i the age of the
// observation, and the weighted average
//
//	y_t = sum_i w_i * x_{t-i} / sum_i w_i.
//
// A value is anomalous when it exceeds y_t by more than Threshold times the
// exponentially weighted standard deviation. The paper requires a full
// window before any detection, i.e. no anomaly during the first Window
// slots; this implementation enforces the same rule.
//
// The windowed weighted sums are maintained incrementally in O(1) per
// observation:
//
//	S_t = x_t + (1-alpha) S_{t-1} - (1-alpha)^W x_{t-W}
//
// and likewise for the sum of squares. To keep floating-point drift from
// accumulating over very long streams, the sums are recomputed exactly from
// the ring buffer at a fixed cadence.
type EWMA struct {
	// Span is the smoothing span s in alpha = 2/(s+1). The paper uses
	// 288 (24 hours of 5-minute slots).
	Span int
	// Window is the number of most recent observations considered. The
	// paper shifts a full 24-hour window, so Window == Span.
	Window int
	// Threshold is the multiple of the weighted standard deviation above
	// the weighted mean at which an observation is tagged anomalous.
	// The paper uses 2.5.
	Threshold float64

	decay    float64 // 1 - alpha
	decayW   float64 // (1 - alpha)^Window
	fullWS   float64 // weightSum at a full window
	buf      []float64
	n        int // observations seen so far
	head     int // ring index of most recent value
	sum      float64
	sumSq    float64
	sincefix int // observations since the last exact recompute
}

// ewmaRefreshEvery bounds floating-point drift: after this many pushes the
// incremental sums are recomputed exactly from the ring buffer.
const ewmaRefreshEvery = 4096

// NewEWMA returns a detector with the paper's parameterisation for the
// given span (window == span) and threshold.
func NewEWMA(span int, threshold float64) *EWMA {
	if span <= 0 {
		panic("stats: NewEWMA with non-positive span")
	}
	alpha := 2 / (float64(span) + 1)
	e := &EWMA{
		Span:      span,
		Window:    span,
		Threshold: threshold,
		decay:     1 - alpha,
		buf:       make([]float64, span),
	}
	e.decayW = math.Pow(e.decay, float64(span))
	e.fullWS = e.weightSumAt(span)
	return e
}

// Ready reports whether a full window has been observed, i.e. whether
// Observe can return an anomaly verdict.
func (e *EWMA) Ready() bool { return e.n >= e.Window }

// weightSum returns sum_{i=0}^{m-1} decay^i for the current fill level m.
// Once the window is full the level no longer moves, so the value computed
// at construction (by the same expression, hence the same bits) is used.
func (e *EWMA) weightSum() float64 {
	if e.n >= e.Window {
		return e.fullWS
	}
	return e.weightSumAt(e.n)
}

func (e *EWMA) weightSumAt(m int) float64 {
	if m == 0 {
		return 0
	}
	alpha := 1 - e.decay
	return (1 - math.Pow(e.decay, float64(m))) / alpha
}

// MeanStd returns the exponentially weighted mean and standard deviation
// over the current window contents. Returns (0, 0) before any observation.
func (e *EWMA) MeanStd() (mean, std float64) {
	ws := e.weightSum()
	if ws == 0 {
		return 0, 0
	}
	mean = e.sum / ws
	v := e.sumSq/ws - mean*mean
	if v < 0 {
		v = 0 // guard against rounding
	}
	return mean, math.Sqrt(v)
}

// Observe appends x to the window and reports whether x is anomalous with
// respect to the window state *before* x was appended. Per the paper, no
// anomaly is reported until a full window of prior observations exists.
func (e *EWMA) Observe(x float64) bool {
	anomalous := false
	if e.Ready() {
		mean, std := e.MeanStd()
		if std == 0 {
			// A flat history makes any strictly larger value anomalous;
			// require a real increase to avoid tagging constant streams.
			anomalous = x > mean && x-mean > 1e-9
		} else {
			anomalous = x > mean+e.Threshold*std
		}
	}
	e.Push(x)
	return anomalous
}

// Push appends x to the window without testing it: Observe minus the
// verdict, for callers that would discard it. The window state afterwards
// is exactly Observe's.
func (e *EWMA) Push(x float64) {
	var evicted float64
	full := e.n >= e.Window
	if e.head++; e.head == e.Window {
		e.head = 0
	}
	if full {
		evicted = e.buf[e.head]
	}
	e.buf[e.head] = x
	e.n++

	e.sum = x + e.decay*e.sum - e.decayW*evicted*boolTo1(full)
	e.sumSq = x*x + e.decay*e.sumSq - e.decayW*evicted*evicted*boolTo1(full)

	e.sincefix++
	if e.sincefix >= ewmaRefreshEvery {
		e.recompute()
	}
}

func boolTo1(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recompute rebuilds the incremental sums exactly from the ring buffer.
func (e *EWMA) recompute() {
	e.sincefix = 0
	m := e.n
	if m > e.Window {
		m = e.Window
	}
	var s, q float64
	w := 1.0
	for age := 0; age < m; age++ {
		idx := e.head - age
		if idx < 0 {
			idx += e.Window
		}
		v := e.buf[idx]
		s += w * v
		q += w * v * v
		w *= e.decay
	}
	e.sum, e.sumSq = s, q
}

// ResetZeros is Reset followed by k observations of zero, without taking
// the k steps: zero pushed onto all-zero sums leaves them +0 bit for bit
// (and so does the periodic exact recompute), so only the counters move.
func (e *EWMA) ResetZeros(k int) {
	e.Reset()
	e.n = k
	e.head = k % e.Window
	e.sincefix = k % ewmaRefreshEvery
}

// Reset clears all observed state, reusing buffers.
func (e *EWMA) Reset() {
	e.n = 0
	e.head = 0
	e.sum = 0
	e.sumSq = 0
	e.sincefix = 0
	for i := range e.buf {
		e.buf[i] = 0
	}
}
