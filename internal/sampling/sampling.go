// Package sampling implements the 1:N random packet sampler deployed at
// the IXP's member-facing edge ports. The paper's data plane is built on
// IPFIX samples at rate 1:10,000; every sampled packet becomes one flow
// record.
//
// The simulator works with packet aggregates (batches of identical or
// near-identical packets within a time slot) rather than individual
// packets, so the sampler answers the question "how many of these n
// packets would a 1:N random sampler have picked?" — which is exactly
// Binomial(n, 1/N). This is distribution-identical to per-packet sampling
// and keeps full-period simulations tractable.
package sampling

import (
	"fmt"

	"repro/internal/stats"
)

// Sampler is a 1:N random packet sampler.
type Sampler struct {
	rate int64
	rng  *stats.RNG
}

// New creates a sampler selecting on average one out of rate packets,
// drawing randomness from rng. rate must be >= 1; rate == 1 samples
// everything (useful for tests).
func New(rate int64, rng *stats.RNG) (*Sampler, error) {
	if rate < 1 {
		return nil, fmt.Errorf("sampling: rate %d < 1", rate)
	}
	if rng == nil {
		return nil, fmt.Errorf("sampling: nil RNG")
	}
	return &Sampler{rate: rate, rng: rng}, nil
}

// Rate returns the configured sampling denominator N.
func (s *Sampler) Rate() int64 { return s.rate }

// Sample returns how many of n packets the sampler selects.
func (s *Sampler) Sample(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if s.rate == 1 {
		return n
	}
	return s.rng.Binomial(n, 1/float64(s.rate))
}
