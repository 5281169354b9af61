package study

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if mean(xs) != 5 {
		t.Errorf("mean = %v", mean(xs))
	}
	if !approx(variance(xs), 32.0/7, 1e-12) {
		t.Errorf("variance = %v", variance(xs))
	}
	if !approx(stdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stddev = %v", stdDev(xs))
	}
	if mean(nil) != 0 || variance([]float64{1}) != 0 {
		t.Error("degenerate inputs")
	}
}

// Reference values from standard t tables.
func TestTCDF(t *testing.T) {
	cases := []struct {
		t, df, want float64
	}{
		{0, 10, 0.5},
		{1.812, 10, 0.95},   // t_{0.95,10}
		{2.228, 10, 0.975},  // t_{0.975,10}
		{2.201, 11, 0.975},  // t_{0.975,11} (12 participants)
		{3.106, 11, 0.995},  // t_{0.995,11}
		{-2.228, 10, 0.025}, // symmetry
		{1.96, 1e6, 0.975},  // approaches normal
	}
	for _, c := range cases {
		if got := tCDF(c.t, c.df); !approx(got, c.want, 5e-4) {
			t.Errorf("tCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
	if !math.IsNaN(tCDF(1, 0)) {
		t.Error("df=0 should be NaN")
	}
}

func TestTQuantile(t *testing.T) {
	cases := []struct {
		conf, df, want float64
	}{
		{0.95, 11, 2.201},
		{0.99, 11, 3.106},
		{0.95, 5, 2.571},
	}
	for _, c := range cases {
		if got := tQuantile(c.conf, c.df); !approx(got, c.want, 5e-3) {
			t.Errorf("tQuantile(%v, %v) = %v, want %v", c.conf, c.df, got, c.want)
		}
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 12, 14, 16, 18}
	// sd = sqrt(10), n = 5, t* (df=4) = 2.776
	want := 2.776 * math.Sqrt(10) / math.Sqrt(5)
	if got := ci95(xs); !approx(got, want, 1e-2) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
	if ci95([]float64{1}) != 0 {
		t.Error("CI95 of singleton")
	}
}

func TestPairedTTest(t *testing.T) {
	// Classic example: clearly different paired samples.
	a := []float64{30, 31, 35, 33, 34, 32, 31, 30, 33, 32, 31, 34}
	b := []float64{50, 55, 52, 54, 53, 51, 56, 50, 52, 55, 54, 53}
	res, err := pairedTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.T >= 0 {
		t.Errorf("t = %v, want negative (a < b)", res.T)
	}
	if res.P >= 0.001 {
		t.Errorf("p = %v, want < 0.001", res.P)
	}
	if res.DF != 11 {
		t.Errorf("df = %v", res.DF)
	}
	if res.significance() != "*" {
		t.Errorf("significance = %q", res.significance())
	}

	// Identical-ish samples: no significance.
	c := []float64{1, 2, 3, 4, 5}
	d := []float64{1.1, 1.9, 3.2, 3.9, 5.1}
	res2, err := pairedTTest(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if res2.P < 0.10 {
		t.Errorf("p = %v, want not significant", res2.P)
	}
	if res2.significance() != "" {
		t.Errorf("significance = %q", res2.significance())
	}

	if _, err := pairedTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := pairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := pairedTTest([]float64{1, 2}, []float64{2, 3}); err == nil {
		t.Error("zero-variance diffs accepted")
	}
}

func TestMarginalSignificance(t *testing.T) {
	r := TTestResult{P: 0.052}
	if r.significance() != "°" {
		t.Errorf("p=0.052 marker = %q", r.significance())
	}
}

func TestLikertMean(t *testing.T) {
	// 8 clamps to 7; mean = (7+6+6+7+5+6+7+6+6+7+6+7)/12 = 76/12
	if got := likertMean([]int{7, 6, 6, 7, 5, 6, 7, 6, 6, 7, 6, 8}); !approx(got, 76.0/12, 1e-9) {
		t.Errorf("mean = %v", got)
	}
	if likertMean(nil) != 0 {
		t.Error("empty mean")
	}
	if likertMean([]int{0}) != 1 {
		t.Error("low clamp")
	}
}

// Property: tCDF is monotone in t and symmetric around 0.5.
func TestTCDFProperties(t *testing.T) {
	f := func(a, b float64) bool {
		ta := math.Mod(math.Abs(a), 10)
		tb := math.Mod(math.Abs(b), 10)
		if ta > tb {
			ta, tb = tb, ta
		}
		df := 7.0
		if tCDF(ta, df) > tCDF(tb, df)+1e-12 {
			return false
		}
		return approx(tCDF(ta, df)+tCDF(-ta, df), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
