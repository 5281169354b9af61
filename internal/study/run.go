package study

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/klm"
	"repro/internal/relational"
	"repro/internal/session"
	"repro/internal/sqlexec"
	"repro/internal/translate"
)

// Timeout is the per-task cap: participants who exceed it are recorded
// at 300 seconds, as in §7.1.
const Timeout = 300.0

// Config parameterizes the simulated study.
type Config struct {
	// Participants is the cohort size (default 12, as in the paper).
	Participants int
	// Seed drives the deterministic simulation.
	Seed int64
	// AltTaskSet selects the second matched task set (§7.1 counterbalances
	// two sets differing only in parameter values).
	AltTaskSet bool
}

func (c *Config) fill() {
	if c.Participants == 0 {
		c.Participants = 12
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// TaskOutcome aggregates one task across participants and conditions.
type TaskOutcome struct {
	Task      Task
	ETimes    []float64 // per-participant ETable times (s)
	NTimes    []float64 // per-participant builder times (s)
	EMean     float64
	NMean     float64
	ECI, NCI  float64 // 95% CI half-widths
	TTest     TTestResult
	ETimeouts int
	NTimeouts int
	// AnswersAgree reports that both conditions produced equivalent
	// answers (Table 2 correctness).
	AnswersAgree bool
	EAnswer      []string
	NAnswer      []string
}

// RatingRow is one Table 3 question with its modelled responses.
type RatingRow struct {
	Question string
	Ratings  []int
	Mean     float64
}

// PrefRow is one §7.2 preference aspect: how many of the participants
// chose ETable over the builder.
type PrefRow struct {
	Aspect string
	ETable int
	Of     int
}

// Report is the complete simulated-study output.
type Report struct {
	Config      Config
	Outcomes    []TaskOutcome
	Ratings     []RatingRow
	Preferences []PrefRow
	// ErrRateBuilder is the fraction of builder runs that hit at least
	// one SQL error (drives the rating model).
	ErrRateBuilder float64
}

// errorModel returns the probability that a participant's first attempt
// in the builder condition fails, from the query's complexity. The shape
// follows §7.2's observations: GROUP BY queries fail often (forgotten
// grouping attributes), and error likelihood grows with the number of
// joined relations.
func errorModel(c baseline.Complexity) float64 {
	p := 0.06 * float64(c.Joins)
	if c.HasAgg {
		p += 0.45
	}
	if c.HasLike {
		p += 0.05
	}
	if p > 0.85 {
		p = 0.85
	}
	return p
}

// debugScript models one SQL debugging cycle: stare at the error,
// re-edit the statement, rerun.
func debugScript() klm.Script {
	var sc klm.Script
	sc = sc.Add(klm.M, 4, "diagnose SQL error")
	sc = sc.Type("GROUP BY fix or join fix", "re-edit statement")
	sc = sc.Click("re-run").AddResponse(0.8, "execute")
	return sc
}

// RunStudy executes the full simulated within-subjects study over the
// translated dataset and its relational form.
func RunStudy(tr *translate.Result, db *relational.DB, cfg Config) (*Report, error) {
	cfg.fill()
	params, err := ChooseParams(tr, db, cfg.AltTaskSet)
	if err != nil {
		return nil, err
	}
	tasks := Tasks(params)
	rep := &Report{Config: cfg}

	rng := rand.New(rand.NewSource(cfg.Seed))
	participants := make([]*klm.Participant, cfg.Participants)
	for i := range participants {
		participants[i] = klm.NewParticipant(rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)))
	}
	_ = rng

	builderErrors, builderRuns := 0, 0
	for _, task := range tasks {
		out := TaskOutcome{Task: task}

		// Execute once per condition for answers and base scripts; the
		// actions are deterministic, so answers are participant-independent.
		s := session.New(tr.Schema, tr.Instance)
		eAns, eScript, err := task.RunETable(s)
		if err != nil {
			return nil, fmt.Errorf("study: task %d (ETable): %w", task.ID, err)
		}
		b := baseline.New(db)
		nAns, nScript, complexity, err := task.RunBaseline(b)
		if err != nil {
			return nil, fmt.Errorf("study: task %d (builder): %w", task.ID, err)
		}
		out.EAnswer, out.NAnswer = eAns, nAns
		agree, err := answersEquivalent(db, task, params, eAns, nAns)
		if err != nil {
			return nil, err
		}
		out.AnswersAgree = agree

		pErr := errorModel(complexity)
		for _, part := range participants {
			// ETable condition: the scripted actions, with a small chance
			// of one exploratory mis-step (an extra pivot + revert).
			et := part.Time(eScript)
			if part.Bernoulli(0.08) {
				var extra klm.Script
				extra = extra.Click("mis-pivot").AddResponse(0.4, "query").Click("revert")
				et += part.Time(extra)
			}
			if et > Timeout {
				et = Timeout
				out.ETimeouts++
			}
			out.ETimes = append(out.ETimes, et)

			// Builder condition: scripted actions plus the SQL error/retry
			// model. Each failed attempt either gets debugged in place or,
			// with the §7.2-observed restart behaviour, rebuilt from
			// scratch; the error probability halves per retry.
			nt := part.Time(nScript)
			builderRuns++
			hadError := false
			p := pErr
			for attempt := 0; attempt < 4 && part.Bernoulli(p); attempt++ {
				hadError = true
				if part.Bernoulli(0.35) {
					// Restart from scratch: rebuild most of the canvas.
					nt += 0.7 * part.Time(nScript)
				} else {
					nt += part.Time(debugScript())
				}
				p /= 2
			}
			if hadError {
				builderErrors++
			}
			if nt > Timeout {
				nt = Timeout
				out.NTimeouts++
			}
			out.NTimes = append(out.NTimes, nt)
		}

		out.EMean = mean(out.ETimes)
		out.NMean = mean(out.NTimes)
		out.ECI = ci95(out.ETimes)
		out.NCI = ci95(out.NTimes)
		tt, err := pairedTTest(out.ETimes, out.NTimes)
		if err != nil {
			return nil, fmt.Errorf("study: task %d t-test: %w", task.ID, err)
		}
		out.TTest = tt
		rep.Outcomes = append(rep.Outcomes, out)
	}
	rep.ErrRateBuilder = float64(builderErrors) / float64(builderRuns)

	rep.Ratings = modelRatings(rep, participants)
	rep.Preferences = modelPreferences(rep, participants)
	return rep, nil
}

// answersEquivalent checks Table 2 correctness. Tasks whose answers are
// "top-k by count" (5 and 6) are validated against ground-truth counts,
// since ties make multiple top-k sets equally correct.
func answersEquivalent(db *relational.DB, task Task, p Params, a, b []string) (bool, error) {
	switch task.ID {
	case 5:
		counts, err := countMap(db, fmt.Sprintf(
			`SELECT Institutions.name, COUNT(*) AS n FROM Institutions, Authors
			 WHERE Authors.institution_id = Institutions.id
			 AND Institutions.country LIKE '%%%s%%'
			 GROUP BY Institutions.name`, escape(p.Country)))
		if err != nil {
			return false, err
		}
		return topKValid(counts, a, 1) && topKValid(counts, b, 1), nil
	case 6:
		counts, err := countMap(db, fmt.Sprintf(
			`SELECT Authors.name, COUNT(*) AS n
			 FROM Authors, Paper_Authors, Papers, Conferences
			 WHERE Authors.id = Paper_Authors.author_id
			 AND Paper_Authors.paper_id = Papers.id
			 AND Papers.conference_id = Conferences.id
			 AND Conferences.acronym = '%s'
			 GROUP BY Authors.name`, escape(p.Conference2)))
		if err != nil {
			return false, err
		}
		return topKValid(counts, a, 3) && topKValid(counts, b, 3), nil
	default:
		return AnswersEqual(a, b), nil
	}
}

func countMap(db *relational.DB, sql string) (map[string]int, error) {
	rel, err := sqlexec.ExecSQL(db, sql)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, r := range rel.Rows {
		out[r[0].AsString()] = int(r[1].AsInt())
	}
	return out, nil
}

// topKValid reports whether ans is a legitimate top-k selection from
// counts: k distinct keys whose count multiset equals the k largest
// counts.
func topKValid(counts map[string]int, ans []string, k int) bool {
	if len(ans) != k {
		return false
	}
	all := make([]int, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	if len(all) < k {
		return false
	}
	got := make([]int, 0, k)
	seen := map[string]bool{}
	for _, a := range ans {
		c, ok := counts[a]
		if !ok || seen[a] {
			return false
		}
		seen[a] = true
		got = append(got, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(got)))
	for i := 0; i < k; i++ {
		if got[i] != all[i] {
			return false
		}
	}
	return true
}

// table3Questions are the paper's ten Table 3 prompts with per-question
// sensitivities to the two measured quantities the model uses: the mean
// speedup over the builder and the builder error rate. The mapping is a
// modelled substitution for human Likert responses; see EXPERIMENTS.md.
var table3Questions = []struct {
	Question    string
	SpeedWeight float64 // how much relative speed drives the rating
	ErrWeight   float64 // how much avoided errors drive the rating
	Base        float64
}{
	{"Easy to learn", 1.2, 0.4, 4.6},
	{"Easy to use", 1.2, 0.5, 4.4},
	{"Helpful to locate and find specific data", 1.0, 0.3, 4.5},
	{"Helpful to browse data stored in databases", 1.4, 0.2, 4.6},
	{"Helpful to interpret and understand results", 0.6, 0.4, 4.0},
	{"Helpful to know what type of information exists", 0.9, 0.2, 4.3},
	{"Helpful to perform complex tasks", 0.9, 0.6, 4.1},
	{"Felt confident when using ETable", 0.7, 0.7, 4.1},
	{"Enjoyed using ETable", 1.1, 0.5, 4.5},
	{"Would like to use software like ETable in the future", 1.2, 0.5, 4.5},
}

// modelRatings derives Table 3 Likert responses from the measured study:
// each participant's rating for a question is a base plus contributions
// from their personal speedup and the builder error rate, plus noise.
func modelRatings(rep *Report, parts []*klm.Participant) []RatingRow {
	n := len(parts)
	rows := make([]RatingRow, 0, len(table3Questions))
	for _, q := range table3Questions {
		row := RatingRow{Question: q.Question}
		for pi := 0; pi < n; pi++ {
			speedup := participantSpeedup(rep, pi)
			r := q.Base + q.SpeedWeight*clamp(speedup-1, 0, 1.5) + q.ErrWeight*rep.ErrRateBuilder*2
			r += parts[pi].Uniform(-0.8, 0.8)
			ri := int(r + 0.5)
			if ri < 1 {
				ri = 1
			}
			if ri > 7 {
				ri = 7
			}
			row.Ratings = append(row.Ratings, ri)
		}
		row.Mean = likertMean(row.Ratings)
		rows = append(rows, row)
	}
	return rows
}

// participantSpeedup is participant pi's mean builder/ETable time ratio.
func participantSpeedup(rep *Report, pi int) float64 {
	num, den := 0.0, 0.0
	for _, o := range rep.Outcomes {
		num += o.NTimes[pi]
		den += o.ETimes[pi]
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// prefAspects are the seven §7.2 comparison aspects with sensitivity to
// the participant's speedup.
var prefAspects = []struct {
	Aspect string
	Gain   float64
}{
	{"Easier to learn", 2.2},
	{"More helpful to browse and explore data", 2.2},
	{"Liked it more overall", 1.8},
	{"Easier to use", 1.6},
	{"Would choose to use in the future", 1.6},
	{"Felt more confident", 1.1},
	{"More helpful in finding specific data", 0.5},
}

// modelPreferences derives the §7.2 ETable-vs-builder preference counts.
func modelPreferences(rep *Report, parts []*klm.Participant) []PrefRow {
	rows := make([]PrefRow, 0, len(prefAspects))
	for _, a := range prefAspects {
		row := PrefRow{Aspect: a.Aspect, Of: len(parts)}
		for pi := range parts {
			adv := clamp(participantSpeedup(rep, pi)-1, 0, 2)
			pref := 0.5 + 0.25*adv*a.Gain
			if pref > 0.98 {
				pref = 0.98
			}
			if parts[pi].Bernoulli(pref) {
				row.ETable++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
