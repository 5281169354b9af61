// Package klm implements a keystroke-level model (KLM; Card, Moran &
// Newell) used to simulate user task completion times for the paper's
// user study (Figure 10). Human participants cannot be re-run in code;
// instead, each study task is scripted as the sequence of interface
// actions an instructed user performs in each condition, and KLM
// operators supply per-action time costs. Per-participant skill factors
// and log-normal noise supply the variance real participants exhibit.
// DESIGN.md documents this substitution.
package klm

import (
	"math"
	"math/rand"
)

// OpKind is a KLM operator.
type OpKind uint8

// KLM operators with their conventional mean durations.
const (
	// K is one keystroke (0.28 s, average skilled typist).
	K OpKind = iota
	// P is pointing at a target with the mouse (1.1 s, Fitts-average).
	P
	// B is a mouse button press or release (0.1 s); a click is 2×B.
	B
	// H is homing hands between keyboard and mouse (0.4 s).
	H
	// M is mental preparation — deciding what to do next (1.35 s).
	M
	// R is system response time the user must wait for (variable; the
	// Seconds field scales it).
	R
)

// duration returns the operator's canonical duration in seconds.
func (k OpKind) duration() float64 {
	switch k {
	case K:
		return 0.28
	case P:
		return 1.1
	case B:
		return 0.1
	case H:
		return 0.4
	case M:
		return 1.35
	default:
		return 1.0
	}
}

// Op is one scripted step: an operator repeated Count times. For R ops,
// Seconds is the response wait per repetition.
type Op struct {
	Kind    OpKind
	Count   int
	Seconds float64 // R only
	Note    string  // provenance for debugging and reports
}

// Script is an ordered action sequence.
type Script []Op

// Add appends count repetitions of an operator.
func (s Script) Add(kind OpKind, count int, note string) Script {
	return append(s, Op{Kind: kind, Count: count, Note: note})
}

// AddResponse appends a system-response wait.
func (s Script) AddResponse(seconds float64, note string) Script {
	return append(s, Op{Kind: R, Count: 1, Seconds: seconds, Note: note})
}

// Click appends a point-and-click (P + 2B) preceded by a mental step.
func (s Script) Click(note string) Script {
	s = s.Add(M, 1, note)
	s = s.Add(P, 1, note)
	return s.Add(B, 2, note)
}

// Type appends typing text: homing to the keyboard plus one K per
// character, with a mental step to compose it.
func (s Script) Type(text, note string) Script {
	s = s.Add(M, 1, note)
	s = s.Add(H, 1, note)
	s = s.Add(K, len(text), note)
	return s.Add(H, 1, note)
}

// BaseTime returns the deterministic KLM time of the script in seconds.
func (s Script) BaseTime() float64 {
	t := 0.0
	for _, op := range s {
		if op.Kind == R {
			t += op.Seconds * float64(op.Count)
			continue
		}
		t += op.Kind.duration() * float64(op.Count)
	}
	return t
}

// Participant simulates one study participant: a skill factor scaling
// all durations and log-normal per-task noise.
type Participant struct {
	// Skill multiplies every duration (1.0 = KLM-average user; novices
	// run above 1).
	Skill float64
	// NoiseSigma is the σ of the log-normal noise factor.
	NoiseSigma float64
	rng        *rand.Rand
}

// NewParticipant draws a participant from the cohort distribution: skill
// uniform in [0.85, 1.35] (graduate students, non-expert DB users per
// §7.1) and σ = 0.12.
func NewParticipant(rng *rand.Rand) *Participant {
	return &Participant{
		Skill:      0.85 + 0.5*rng.Float64(),
		NoiseSigma: 0.12,
		rng:        rng,
	}
}

// Time simulates executing a script: base KLM time, scaled by skill,
// with log-normal noise.
func (p *Participant) Time(s Script) float64 {
	base := s.BaseTime() * p.Skill
	noise := math.Exp(p.rng.NormFloat64() * p.NoiseSigma)
	return base * noise
}

// Bernoulli samples a biased coin, used by the error models.
func (p *Participant) Bernoulli(prob float64) bool {
	return p.rng.Float64() < prob
}

// Uniform returns a uniform sample in [lo, hi).
func (p *Participant) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*p.rng.Float64()
}
