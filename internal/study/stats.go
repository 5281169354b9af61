package study

// The statistics the paper's evaluation reports: means, standard
// deviations, 95% confidence intervals for the mean, and two-tailed
// paired t-tests (Figure 10's error bars and significance markers),
// plus the Likert-scale mean of Table 3.

import (
	"fmt"
	"math"
)

// mean returns the arithmetic mean (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// variance returns the sample variance (n-1 denominator).
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// stdDev returns the sample standard deviation.
func stdDev(xs []float64) float64 { return math.Sqrt(variance(xs)) }

// lgamma returns the log-gamma function.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaIncomplete computes the regularized incomplete beta function
// I_x(a, b) by the continued-fraction expansion (Numerical Recipes
// formulation), accurate to ~1e-12 for the arguments t-tests need.
func betaIncomplete(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for betaIncomplete using
// Lentz's method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// tCDF returns P(T <= t) for Student's t distribution with df degrees of
// freedom.
func tCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * betaIncomplete(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// tQuantile returns the two-sided critical value t* with
// P(|T| <= t*) = conf for df degrees of freedom, via bisection on tCDF.
func tQuantile(conf, df float64) float64 {
	target := 1 - (1-conf)/2
	lo, hi := 0.0, 1000.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ci95 returns the half-width of the 95% confidence interval for the
// mean of xs (the error bars of Figure 10).
func ci95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	tcrit := tQuantile(0.95, float64(n-1))
	return tcrit * stdDev(xs) / math.Sqrt(float64(n))
}

// TTestResult reports a paired two-tailed t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // degrees of freedom (n-1)
	P  float64 // two-tailed p-value
}

// significance renders the paper's Figure 10 markers: "*" for p < 0.01,
// "°" for p < 0.10, "" otherwise.
func (r TTestResult) significance() string {
	switch {
	case r.P < 0.01:
		return "*"
	case r.P < 0.10:
		return "°"
	default:
		return ""
	}
}

// pairedTTest runs a two-tailed paired t-test on equal-length samples,
// as the paper does for per-task completion times across the 12
// within-subject participants.
func pairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, fmt.Errorf("study: paired samples differ in length (%d vs %d)", len(a), len(b))
	}
	if len(a) < 2 {
		return TTestResult{}, fmt.Errorf("study: need at least 2 pairs")
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	sd := stdDev(diffs)
	if sd == 0 {
		return TTestResult{}, fmt.Errorf("study: zero variance in differences")
	}
	n := float64(len(diffs))
	t := mean(diffs) / (sd / math.Sqrt(n))
	df := n - 1
	p := 2 * (1 - tCDF(math.Abs(t), df))
	return TTestResult{T: t, DF: df, P: p}, nil
}

// likertMean is the mean of 7-point Likert ratings, each clamped to
// [1, 7] (0 for no ratings).
func likertMean(ratings []int) float64 {
	if len(ratings) == 0 {
		return 0
	}
	sum := 0
	for _, r := range ratings {
		sum += min(max(r, 1), 7)
	}
	return float64(sum) / float64(len(ratings))
}
