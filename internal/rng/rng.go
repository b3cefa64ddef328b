// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every experiment in EXPERIMENTS.md is regenerated from a fixed seed, and
// sub-simulations (per-coin chains, per-miner decisions) draw from
// independent streams split off a parent generator so that adding a consumer
// never perturbs the draws seen by existing consumers.
//
// The generator is PCG-XSH-RR 64/32 extended to 64-bit output by combining
// two 32-bit outputs; it is fast, has a 2^64 period per stream, and supports
// 2^63 independent streams selected by the increment.
package rng

import "math"

const pcgMultiplier = 6364136223846793005

// Rand is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; split independent streams instead of sharing one.
type Rand struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator seeded with seed on the given stream.
// Distinct stream values yield statistically independent sequences.
func NewStream(seed, stream uint64) *Rand {
	r := new(Rand)
	r.reseed(seed, stream)
	return r
}

// reseed sets r to the initial state NewStream(seed, stream) returns.
func (r *Rand) reseed(seed, stream uint64) {
	r.inc = (stream << 1) | 1
	r.state = 0
	r.next32()
	r.state += seed
	r.next32()
}

// Split derives a new independent generator from r. The parent advances by
// two draws, so splitting is itself deterministic.
func (r *Rand) Split() *Rand {
	child := new(Rand)
	r.SplitInto(child)
	return child
}

// SplitInto is Split without the allocation: it sets dst to the generator
// Split would return and advances r exactly as Split does.
func (r *Rand) SplitInto(dst *Rand) {
	seed := r.Uint64()
	stream := r.Uint64() >> 1
	dst.reseed(seed, stream)
}

// Fork returns the i-th child generator of r WITHOUT advancing r: it is a
// pure function of (r's current state, i). Distinct i yield independent
// streams.
//
// Fork is the primitive the concurrent experiment engine builds on: a parent
// generator is forked once per task index, so every task sees the same
// stream no matter how many workers run the tasks or in which order they are
// scheduled. Split, by contrast, advances the parent and therefore couples a
// child's stream to how many siblings were split before it.
func (r *Rand) Fork(i uint64) *Rand {
	child := new(Rand)
	r.ForkInto(child, i)
	return child
}

// ForkInto is Fork without the allocation: it sets dst to the generator
// Fork(i) would return and does not advance r. The engine's workers each
// re-seed one generator this way before every task.
func (r *Rand) ForkInto(dst *Rand, i uint64) {
	seed := splitmix64(r.state ^ splitmix64(i+0x632be59bd9b4e019))
	stream := splitmix64(seed^r.inc) >> 1
	dst.reseed(seed, stream)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed bijection used
// to derive decorrelated (seed, stream) pairs for Fork.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *Rand) next32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching the
// contract of math/rand.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// debiased multiply-shift rejection method.
func (r *Rand) boundedUint64(bound uint64) uint64 {
	// Rejection zone to remove modulo bias.
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % bound
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given rate (events per unit
// time). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	return r.ExpFloat64() / rate
}

// Zipf returns n weights following a Zipf distribution with exponent s,
// normalized to sum to total. Zipf-distributed mining power is the standard
// model for hashrate concentration.
func Zipf(n int, s, total float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] = w[i] / sum * total
	}
	return w
}
