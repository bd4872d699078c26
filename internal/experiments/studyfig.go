package experiments

import (
	"fmt"
	"io"

	"repro/internal/study"
)

// runFig8c: the simulated user study's per-task time and accuracy under
// both interfaces.
func runFig8c(w io.Writer) error {
	obs := study.Run(study.DefaultConfig())
	tb := newTable("task", "interface", "time", "accuracy", "n")
	for _, c := range study.Summarize(obs) {
		tb.add(study.TaskNames[c.Task], c.Condition.String(),
			fmt.Sprintf("%.1fs ± %.1f", c.MeanSecs, c.CI95Secs),
			fmt.Sprintf("%.0f%%", c.Accuracy*100), c.N)
	}
	tb.write(w)
	fmt.Fprintln(w, "  (paper Fig 8c: PI 9.3s±0.8 vs SDSS 11.2s±1 on tasks 2-4; task 1: 9.9s±1.5 vs ≈60s)")
	fmt.Fprintln(w, "  NOTE: simulated participants (see package internal/study); shapes, not human data.")
	return nil
}

// runFig13: ordering effects — mean time by the position at which the
// task was completed — plus the ANOVA the paper reports.
func runFig13(w io.Writer) error {
	obs := study.Run(study.DefaultConfig())
	tb := newTable("task", "interface", "order=1", "order=2", "order=3", "order=4")
	cells := study.ByOrder(obs)
	for task := 0; task < study.NumTasks; task++ {
		for _, cond := range []study.Condition{study.PrecisionInterface, study.SDSSForm} {
			row := []any{study.TaskNames[task], cond.String()}
			for order := 1; order <= study.NumTasks; order++ {
				v := "-"
				for _, c := range cells {
					if c.Task == task && c.Condition == cond && c.Order == order {
						v = fmt.Sprintf("%.1fs", c.MeanSecs)
					}
				}
				row = append(row, v)
			}
			tb.add(row...)
		}
	}
	tb.write(w)
	fmt.Fprintln(w, "  ANOVA (time as dependent variable):")
	for _, ft := range study.Anova(obs) {
		fmt.Fprintf(w, "    %s\n", ft)
	}
	fmt.Fprintln(w, "  (paper: all factors significant, p<=2e-12; interaction p=2e-16; no learning for SDSS task 1)")
	return nil
}
