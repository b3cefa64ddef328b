package numeric

import (
	"math"
	"testing"
	"testing/quick"

	"gameofcoins/internal/rng"
)

func TestFloatComparators(t *testing.T) {
	tests := []struct {
		name                 string
		a, b, eps            float64
		less, greater, equal bool
	}{
		{"clearly less", 1, 2, Eps, true, false, false},
		{"clearly greater", 2, 1, Eps, false, true, false},
		{"identical", 5, 5, Eps, false, false, true},
		{"within eps", 1, 1 + 1e-12, Eps, false, false, true},
		{"just outside eps", 1, 1 + 1e-6, Eps, true, false, false},
		{"large scale within eps", 1e12, 1e12 + 1, Eps, false, false, true},
		{"large scale outside eps", 1e12, 1.1e12, Eps, true, false, false},
		{"tiny magnitudes use absolute floor", 1e-15, 2e-15, Eps, false, false, true},
		{"negative ordering", -2, -1, Eps, true, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Less(tt.a, tt.b, tt.eps); got != tt.less {
				t.Errorf("Less(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.less)
			}
			if got := Greater(tt.a, tt.b, tt.eps); got != tt.greater {
				t.Errorf("Greater(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.greater)
			}
			if got := Equal(tt.a, tt.b, tt.eps); got != tt.equal {
				t.Errorf("Equal(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.equal)
			}
		})
	}
}

func TestComparatorTrichotomyProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		n := 0
		if Less(a, b, Eps) {
			n++
		}
		if Greater(a, b, Eps) {
			n++
		}
		if Equal(a, b, Eps) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatArithmetic(t *testing.T) {
	half := NewRat(1, 2)
	third := NewRat(1, 3)
	if got := half.Add(third); !got.Equal(NewRat(5, 6)) {
		t.Errorf("1/2 + 1/3 = %v", got)
	}
	if got := half.Sub(third); !got.Equal(NewRat(1, 6)) {
		t.Errorf("1/2 - 1/3 = %v", got)
	}
	if got := half.Mul(third); !got.Equal(NewRat(1, 6)) {
		t.Errorf("1/2 * 1/3 = %v", got)
	}
	if got := half.Div(third); !got.Equal(NewRat(3, 2)) {
		t.Errorf("(1/2) / (1/3) = %v", got)
	}
}

func TestRatZeroValueIsZero(t *testing.T) {
	var z Rat
	if z.Sign() != 0 {
		t.Fatalf("zero value sign = %d", z.Sign())
	}
	if got := z.Add(RatFromInt(3)); !got.Equal(RatFromInt(3)) {
		t.Fatalf("0 + 3 = %v", got)
	}
}

func TestRatComparisons(t *testing.T) {
	a, b := NewRat(2, 3), NewRat(3, 4)
	if !a.Less(b) || a.Greater(b) || a.Equal(b) {
		t.Fatal("2/3 vs 3/4 comparison wrong")
	}
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp wrong")
	}
}

func TestRatDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	NewRat(1, 2).Div(Rat{})
}

func TestNewRatZeroDenominatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRat(1,0) did not panic")
		}
	}()
	NewRat(1, 0)
}

func TestRatFromFloatExact(t *testing.T) {
	if got := RatFromFloat(0.5); !got.Equal(NewRat(1, 2)) {
		t.Fatalf("RatFromFloat(0.5) = %v", got)
	}
	if got := RatFromFloat(0.1).Float64(); got != 0.1 {
		t.Fatalf("round trip of 0.1 = %v", got)
	}
}

func TestRatFromFloatPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RatFromFloat(NaN) did not panic")
		}
	}()
	RatFromFloat(math.NaN())
}

func TestRatImmutability(t *testing.T) {
	a := NewRat(1, 2)
	_ = a.Add(NewRat(1, 2))
	if !a.Equal(NewRat(1, 2)) {
		t.Fatal("Add mutated its receiver")
	}
}

func TestSumRats(t *testing.T) {
	rs := []Rat{NewRat(1, 2), NewRat(1, 3), NewRat(1, 6)}
	if got := SumRats(rs); !got.Equal(RatFromInt(1)) {
		t.Fatalf("sum = %v", got)
	}
	if got := SumRats(nil); got.Sign() != 0 {
		t.Fatalf("empty sum = %v", got)
	}
}

func TestRatArithmeticAgreesWithFloatProperty(t *testing.T) {
	f := func(a, b int16, q1, q2 uint8) bool {
		d1, d2 := int64(q1)+1, int64(q2)+1
		ra := NewRat(int64(a), d1)
		rb := NewRat(int64(b), d2)
		sum := ra.Add(rb).Float64()
		want := float64(a)/float64(d1) + float64(b)/float64(d2)
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatString(t *testing.T) {
	if got := NewRat(3, 6).String(); got != "1/2" {
		t.Fatalf("String = %q", got)
	}
	if got := RatFromInt(4).String(); got != "4" {
		t.Fatalf("String = %q", got)
	}
}

// TestGreaterMonotone checks the lemma in Greater's doc comment, which the
// pruned equilibrium search relies on: for finite 0 ≤ a ≤ a', 0 ≤ b' ≤ b
// and 0 ≤ eps ≤ 1/4, Greater(a, b, eps) implies Greater(a', b', eps). The
// pairs sit on the rounding boundary: Greater(a, b, eps) fails one ulp
// below a, and a', b' are a few ulps away.
func TestGreaterMonotone(t *testing.T) {
	r := rng.New(31)
	for _, eps := range []float64{0, 1e-15, Eps, 1e-3, 0.25} {
		for trial := 0; trial < 20000; trial++ {
			b := math.Ldexp(r.Float64(), r.Intn(40)-20)
			// Bisect the bit patterns of [b, 2b+2] (ordered like the values
			// for non-negative floats) for a float a at which Greater turns
			// true: Greater(a, b, eps) holds and fails one ulp below a.
			lo, hi := math.Float64bits(b), math.Float64bits(2*b+2)
			for hi-lo > 1 {
				if mid := lo + (hi-lo)/2; Greater(math.Float64frombits(mid), b, eps) {
					hi = mid
				} else {
					lo = mid
				}
			}
			a := math.Float64frombits(hi)
			inf := math.Inf(1)
			up := []float64{a, math.Nextafter(a, inf), math.Nextafter(math.Nextafter(a, inf), inf), a * (1 + 1e-15), 2 * a, math.Nextafter(1, 2)}
			down := []float64{b, math.Nextafter(b, 0), b * (1 - 1e-15), b / 2, 0}
			for _, a2 := range up {
				for _, b2 := range down {
					if a2 >= a && b2 <= b && !Greater(a2, b2, eps) {
						t.Fatalf("eps %g: Greater(%v, %v) but not Greater(%v, %v)", eps, a, b, a2, b2)
					}
				}
			}
		}
	}
}

// TestComparatorsFalseOnNaN pins that a NaN argument makes every comparison
// false, whatever scale returns for it.
func TestComparatorsFalseOnNaN(t *testing.T) {
	nan := math.NaN()
	for _, ab := range [][2]float64{{nan, 1}, {1, nan}, {nan, nan}, {nan, math.Inf(1)}} {
		if Less(ab[0], ab[1], Eps) || Greater(ab[0], ab[1], Eps) || Equal(ab[0], ab[1], Eps) {
			t.Errorf("a comparator is true for %v", ab)
		}
	}
}
