// Package numeric provides the two number systems used by the library:
//
//   - tolerant float64 comparison helpers for the fast simulation engine, and
//   - an exact rational type (a thin convenience wrapper over math/big.Rat)
//     for the verification engine in internal/exact.
//
// The paper's Assumption 2 ("generic game") rules out exact payoff ties; in
// floating point, near-ties are a real hazard, so the fast engine compares
// with a relative epsilon and the test suite cross-checks decisions against
// exact arithmetic.
package numeric

import (
	"fmt"
	"math"
	"math/big"
)

// Eps is the default relative tolerance for float comparisons. Mining powers
// and rewards in realistic units span ~12 orders of magnitude; 1e-9 relative
// keeps comparisons exact for the ratios the game computes while absorbing
// accumulated rounding.
const Eps = 1e-9

// Less reports whether a < b beyond relative tolerance eps.
func Less(a, b, eps float64) bool {
	return b-a > eps*scale(a, b)
}

// Greater reports whether a > b beyond relative tolerance eps.
//
// Greater is monotone, and the pruned equilibrium search in internal/core
// relies on it: for finite floats 0 ≤ a ≤ a', 0 ≤ b' ≤ b and a float
// 0 ≤ eps ≤ 1/4, Greater(a, b, eps) implies Greater(a', b', eps).
// Greater(a, b, eps) is fl(a−b) > fl(eps·s) with s = max(a, b, 1). If it
// holds, fl(a−b) > 0, so a > b and s = max(a, 1). Lowering b to b' raises
// fl(a'−b) to fl(a'−b') and leaves the scale max(a', 1) alone, so take
// b' = b. If a' ≤ 1 both scales are 1 and fl(a'−b) ≥ fl(a−b). Otherwise
// a' > 1 and the right side is fl(eps·a') ≤ a'/4:
//
//   - If a' ≥ 2b, then fl(a'−b) ≥ a'/2.
//   - If a' < 2b, then b < a ≤ a' < 2b, so by Sterbenz's lemma D = a−b and
//     D' = a'−b are exact and D' = D + δ with δ = a'−a. fl(eps·s) < D gives
//     eps·s < D, so eps·a' ≤ eps·s + eps·δ < D' − 3δ/4. If δ = 0 there is
//     nothing to prove. Otherwise δ ≥ ulp(a) ≥ ulp(D'), since
//     D' < a'/2 < a, so eps·a' lies more than half an ulp below D' and
//     rounds below it.
func Greater(a, b, eps float64) bool {
	return a-b > eps*scale(a, b)
}

// Equal reports whether a and b are within relative tolerance eps.
func Equal(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*scale(a, b)
}

// scale returns max(|a|, |b|, 1). It avoids math.Max, which is not inlined
// and costs the equilibrium search a third of its time; the two differ only
// when an argument is NaN, and then a−b is NaN and every caller's comparison
// is false whatever the scale.
func scale(a, b float64) float64 {
	s := math.Abs(a)
	if t := math.Abs(b); t > s {
		s = t
	}
	if s < 1 {
		return 1
	}
	return s
}

// Rat is an immutable exact rational number. The zero value is 0.
// All operations allocate a fresh result; operands are never mutated, which
// keeps the exact engine trivially safe to share across goroutines that only
// read.
type Rat struct {
	v *big.Rat
}

// NewRat returns the rational p/q. It panics if q == 0.
func NewRat(p, q int64) Rat {
	if q == 0 {
		panic("numeric: zero denominator")
	}
	return Rat{v: big.NewRat(p, q)}
}

// RatFromInt returns the rational n/1.
func RatFromInt(n int64) Rat {
	return Rat{v: big.NewRat(n, 1)}
}

// RatFromFloat converts a float64 exactly (every finite float64 is rational).
// It panics on NaN or ±Inf, which have no rational value.
func RatFromFloat(f float64) Rat {
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		panic(fmt.Sprintf("numeric: cannot convert %v to rational", f))
	}
	return Rat{v: r}
}

func (r Rat) rat() *big.Rat {
	if r.v == nil {
		return new(big.Rat)
	}
	return r.v
}

// Add returns r + o.
func (r Rat) Add(o Rat) Rat { return Rat{v: new(big.Rat).Add(r.rat(), o.rat())} }

// Sub returns r - o.
func (r Rat) Sub(o Rat) Rat { return Rat{v: new(big.Rat).Sub(r.rat(), o.rat())} }

// Mul returns r * o.
func (r Rat) Mul(o Rat) Rat { return Rat{v: new(big.Rat).Mul(r.rat(), o.rat())} }

// Div returns r / o. It panics if o is zero.
func (r Rat) Div(o Rat) Rat {
	if o.Sign() == 0 {
		panic("numeric: division by zero")
	}
	return Rat{v: new(big.Rat).Quo(r.rat(), o.rat())}
}

// Cmp returns -1, 0, or +1 according to the sign of r - o.
func (r Rat) Cmp(o Rat) int { return r.rat().Cmp(o.rat()) }

// Less reports r < o.
func (r Rat) Less(o Rat) bool { return r.Cmp(o) < 0 }

// Greater reports r > o.
func (r Rat) Greater(o Rat) bool { return r.Cmp(o) > 0 }

// Equal reports r == o.
func (r Rat) Equal(o Rat) bool { return r.Cmp(o) == 0 }

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int { return r.rat().Sign() }

// Float64 returns the nearest float64 to r.
func (r Rat) Float64() float64 {
	f, _ := r.rat().Float64()
	return f
}

// String renders r as p/q (or an integer when q == 1).
func (r Rat) String() string { return r.rat().RatString() }

// SumRats returns the exact sum of the given rationals.
func SumRats(rs []Rat) Rat {
	acc := new(big.Rat)
	for _, r := range rs {
		acc.Add(acc, r.rat())
	}
	return Rat{v: acc}
}
