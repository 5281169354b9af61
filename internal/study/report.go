package study

import (
	"fmt"
	"io"
)

// paperFigure10 holds the paper's reported mean task times (seconds) for
// comparison in the generated report: {ETable, Navicat} per task.
var paperFigure10 = [6][2]float64{
	{34.9, 53.2}, {39.5, 54.4}, {57.2, 92.3},
	{150.5, 218.5}, {59.0, 231.6}, {104.8, 198.5},
}

// paperTable3 holds the paper's reported Table 3 means.
var paperTable3 = []float64{6.42, 6.33, 6.25, 6.67, 5.58, 6.00, 6.00, 5.92, 6.42, 6.50}

// WriteFigure10 renders the simulated Figure 10: per-task means, 95%
// CIs, significance markers, and the paper's numbers alongside.
func WriteFigure10(w io.Writer, rep *Report) {
	fmt.Fprintln(w, "Figure 10 — Average task completion time (seconds)")
	fmt.Fprintln(w, "task  category   ETable mean ±CI95   Builder mean ±CI95   sig  p-value    paper (E/N)")
	fmt.Fprintln(w, "----  ---------  ------------------  -------------------  ---  ---------  ------------")
	for i, o := range rep.Outcomes {
		sig := o.TTest.significance()
		if sig == "" {
			sig = "-"
		}
		paper := ""
		if i < len(paperFigure10) {
			paper = fmt.Sprintf("%5.1f /%6.1f", paperFigure10[i][0], paperFigure10[i][1])
		}
		fmt.Fprintf(w, "  %d   %-9s  %8.1f ± %-6.1f   %8.1f ± %-6.1f   %-3s  %-9.2g  %s\n",
			o.Task.ID, o.Task.Category, o.EMean, o.ECI, o.NMean, o.NCI, sig, o.TTest.P, paper)
	}
	fmt.Fprintln(w, "\n(*: p < 0.01 two-tailed paired t-test; °: p < 0.10; timeouts capped at 300 s)")
}

// WriteTable2 renders the task list with correctness verdicts.
func WriteTable2(w io.Writer, rep *Report) {
	fmt.Fprintln(w, "Table 2 — Tasks (answers computed in BOTH conditions)")
	for _, o := range rep.Outcomes {
		status := "ANSWERS AGREE"
		if !o.AnswersAgree {
			status = "ANSWERS DIFFER"
		}
		fmt.Fprintf(w, "  %d. [%s, %d relations] %s\n     %s (ETable: %d items, builder: %d items)\n",
			o.Task.ID, o.Task.Category, o.Task.Relations, o.Task.Name,
			status, len(o.EAnswer), len(o.NAnswer))
	}
}

// WriteTable3 renders the modelled subjective ratings next to the
// paper's reported means.
func WriteTable3(w io.Writer, rep *Report) {
	fmt.Fprintln(w, "Table 3 — Subjective ratings (modelled; 7-point Likert)")
	fmt.Fprintln(w, " #  question                                              model  paper")
	for i, r := range rep.Ratings {
		paper := 0.0
		if i < len(paperTable3) {
			paper = paperTable3[i]
		}
		fmt.Fprintf(w, "%2d  %-52s  %4.2f   %4.2f\n", i+1, r.Question, r.Mean, paper)
	}
}

// WritePreferences renders the §7.2 preference comparison.
func WritePreferences(w io.Writer, rep *Report) {
	fmt.Fprintln(w, "Preference comparison — participants choosing ETable over the builder")
	for _, p := range rep.Preferences {
		fmt.Fprintf(w, "  %-44s %2d/%d\n", p.Aspect, p.ETable, p.Of)
	}
}

// WriteReport renders everything.
func WriteReport(w io.Writer, rep *Report) {
	WriteTable2(w, rep)
	fmt.Fprintln(w)
	WriteFigure10(w, rep)
	fmt.Fprintln(w)
	WriteTable3(w, rep)
	fmt.Fprintln(w)
	WritePreferences(w, rep)
	fmt.Fprintf(w, "\nBuilder condition error rate: %.0f%% of runs hit at least one SQL error\n",
		100*rep.ErrRateBuilder)
}
