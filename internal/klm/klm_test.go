package klm

import (
	"math"
	"math/rand"
	"testing"
)

func TestBaseTime(t *testing.T) {
	var s Script
	s = s.Add(K, 10, "typing")   // 2.8
	s = s.Add(P, 2, "pointing")  // 2.2
	s = s.Add(B, 4, "buttons")   // 0.4
	s = s.Add(H, 1, "homing")    // 0.4
	s = s.Add(M, 2, "thinking")  // 2.7
	s = s.AddResponse(1.5, "ok") // 1.5
	want := 10*0.28 + 2*1.1 + 4*0.1 + 0.4 + 2*1.35 + 1.5
	if got := s.BaseTime(); math.Abs(got-want) > 1e-9 {
		t.Errorf("BaseTime = %v, want %v", got, want)
	}
}

func TestClickAndType(t *testing.T) {
	var s Script
	s = s.Click("button")
	// M + P + 2B = 1.35 + 1.1 + 0.2
	if got := s.BaseTime(); math.Abs(got-2.65) > 1e-9 {
		t.Errorf("click time = %v", got)
	}
	var ty Script
	ty = ty.Type("abcd", "word")
	// M + H + 4K + H = 1.35 + 0.4 + 1.12 + 0.4
	if got := ty.BaseTime(); math.Abs(got-3.27) > 1e-9 {
		t.Errorf("type time = %v", got)
	}
}

func TestParticipantTimeScaling(t *testing.T) {
	var s Script
	s = s.Add(M, 10, "think")
	fast := &Participant{Skill: 0.5, NoiseSigma: 0, rng: rand.New(rand.NewSource(1))}
	slow := &Participant{Skill: 2.0, NoiseSigma: 0, rng: rand.New(rand.NewSource(1))}
	ft, st := fast.Time(s), slow.Time(s)
	if math.Abs(ft-6.75) > 1e-9 || math.Abs(st-27) > 1e-9 {
		t.Errorf("scaled times = %v, %v", ft, st)
	}
}

func TestNoiseIsLogNormal(t *testing.T) {
	var s Script
	s = s.Add(M, 10, "think")
	p := NewParticipant(rand.New(rand.NewSource(7)))
	base := s.BaseTime() * p.Skill
	sum, n := 0.0, 400
	for i := 0; i < n; i++ {
		ti := p.Time(s)
		if ti <= 0 {
			t.Fatal("non-positive time")
		}
		sum += ti
	}
	mean := sum / float64(n)
	// Log-normal with σ=0.12 has mean ≈ base·e^{σ²/2} ≈ base·1.0072.
	if mean < base*0.95 || mean > base*1.08 {
		t.Errorf("noisy mean %v not near base %v", mean, base)
	}
}

func TestParticipantCohort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		p := NewParticipant(rng)
		if p.Skill < 0.85 || p.Skill > 1.35 {
			t.Fatalf("skill %v out of cohort range", p.Skill)
		}
	}
}

func TestBernoulliAndUniform(t *testing.T) {
	p := NewParticipant(rand.New(rand.NewSource(11)))
	hits := 0
	for i := 0; i < 2000; i++ {
		if p.Bernoulli(0.3) {
			hits++
		}
	}
	if hits < 450 || hits > 750 {
		t.Errorf("Bernoulli(0.3) rate = %d/2000", hits)
	}
	for i := 0; i < 100; i++ {
		u := p.Uniform(2, 5)
		if u < 2 || u >= 5 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
	if p.Bernoulli(0) {
		t.Error("Bernoulli(0) fired")
	}
	if !p.Bernoulli(1.01) {
		t.Error("Bernoulli(>1) missed")
	}
}

func TestEmptyScript(t *testing.T) {
	var s Script
	if s.BaseTime() != 0 {
		t.Error("empty script should be free")
	}
}
