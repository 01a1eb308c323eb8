package stats

import "math"

// Poisson draws a Poisson-distributed variate with mean lambda.
//
// For small lambda it uses Knuth's multiplication method; for large lambda
// it switches to a normal approximation with continuity correction, which
// is accurate to well under a packet for the flow volumes the simulator
// produces (lambda in the thousands and beyond).
func (r *RNG) Poisson(lambda float64) int64 {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := int64(0)
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		// Normal approximation N(lambda, lambda).
		v := lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int64(v)
	}
}

// Binomial draws the number of successes in n trials with success
// probability p. This is the exact model of a 1:N random packet sampler
// applied to a flow of n packets.
//
// Three regimes keep it O(1)-ish for the huge n / tiny p case that
// dominates IPFIX-style sampling: exact Bernoulli for small n, a Poisson
// approximation when n*p is small relative to n, and a normal
// approximation otherwise.
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		var k int64
		for i := int64(0); i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	case p < 0.01 && mean < 1000:
		// Poisson limit theorem; clamp to n.
		k := r.Poisson(mean)
		if k > n {
			return n
		}
		return k
	default:
		sd := math.Sqrt(mean * (1 - p))
		v := mean + sd*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int64(v)
	}
}

// Pareto draws a bounded Pareto variate in [lo, hi] with shape alpha.
// Heavy-tailed draws model flow sizes and per-AS traffic contributions,
// both of which are strongly skewed at real IXPs.
func (r *RNG) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		return lo
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// LogNormal draws exp(N(mu, sigma^2)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipf draws a rank in [0, n) following a Zipf distribution with exponent
// s (> 0). Rank 0 is the most popular. Used for service-port popularity
// and amplifier reuse. Implemented by inverse-CDF over precomputed
// weights when n is small, otherwise by rejection sampling.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice selects index i with probability weights[i]/sum(weights).
// It panics if weights is empty; non-positive weights are treated as zero.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: WeightedChoice with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Chooser draws indices from a fixed weight vector by prefix sum: the
// running sums are accumulated once, in index order, and a draw is a
// binary search for the first one the variate falls below. The sums are
// the exact values WeightedChoice's scan passes through, so for the same
// weights and generator state a Chooser returns the same index and
// leaves the generator in the same state — it is WeightedChoice for
// callers that draw many times from weights that do not change.
type Chooser struct {
	cum []float64 // cum[i] = sum of the positive weights through index i
}

// NewChooser precomputes the running sums of weights. Like
// WeightedChoice it panics on an empty vector and treats non-positive
// weights as zero.
func NewChooser(weights []float64) *Chooser {
	if len(weights) == 0 {
		panic("stats: NewChooser with no weights")
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		cum[i] = acc
	}
	return &Chooser{cum: cum}
}

// Choose selects index i with probability weights[i]/sum(weights).
func (c *Chooser) Choose(r *RNG) int {
	n := len(c.cum)
	total := c.cum[n-1]
	if total <= 0 {
		return r.Intn(n)
	}
	u := r.Float64() * total
	// First index whose running sum exceeds u. A zero-weight entry repeats
	// its predecessor's sum, so it is never the first.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < c.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == n {
		return n - 1
	}
	return lo
}
