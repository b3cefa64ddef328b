package bench

import (
	"errors"
	"math"
	"sort"
)

// quantile estimates the q-quantile of v with the Harrell–Davis estimator:
// a weighted mean of all order statistics, with weights from the
// Beta((n+1)q, (n+1)(1-q)) distribution. Unlike a single order statistic
// it does not stick to the clock's tick, and its run-to-run variance is
// lower. Returns 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	n := len(v)
	switch n {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// Weights outside ten standard deviations of the Beta law are below
	// float precision; skip them.
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int(math.Floor((q-10*sd)*float64(n))))
	hi := min(n, int(math.Ceil((q+10*sd)*float64(n))))
	first := betaInc(float64(lo)/float64(n), a, b)
	prev, total := first, 0.0
	for i := lo + 1; i <= hi; i++ {
		cur := betaInc(float64(i)/float64(n), a, b)
		total += (cur - prev) * s[i-1]
		prev = cur
	}
	return total / (prev - first)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(x, a, b) / a
	}
	return 1 - front*betaFrac(1-x, b, a)/b
}

func betaFrac(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// median is the middle value of v, or the mean of the two middle values;
// 0 for an empty v.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of v by
// the same rule as Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), so a summary's spread reads exactly as a check
// computed with that function would.
func quartiles(v []float64) (q1, med, q3 float64, err error) {
	n := len(v)
	if n < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}
