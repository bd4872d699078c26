package study

import (
	"math"
	"testing"
)

func cells(t *testing.T) map[[2]int]CellStat {
	t.Helper()
	obs := Run(DefaultConfig())
	out := map[[2]int]CellStat{}
	for _, c := range Summarize(obs) {
		out[[2]int{c.Task, int(c.Condition)}] = c
	}
	return out
}

// TestFig8cShape pins the headline study findings.
func TestFig8cShape(t *testing.T) {
	cs := cells(t)
	// Task 1: SDSS form has no objectId widgets -> near the 60 s cap;
	// the generated interface stays near the other tasks' times.
	sdss1 := cs[[2]int{TaskObjectID, int(SDSSForm)}]
	pi1 := cs[[2]int{TaskObjectID, int(PrecisionInterface)}]
	if sdss1.MeanSecs < 50 {
		t.Fatalf("SDSS Task 1 mean = %.1fs, want ≈60s", sdss1.MeanSecs)
	}
	if pi1.MeanSecs > 20 {
		t.Fatalf("PI Task 1 mean = %.1fs, want ≈10s", pi1.MeanSecs)
	}
	// Tasks 2-4: PI slightly faster than SDSS under both conditions.
	for task := TaskArea; task <= TaskRedshift; task++ {
		pi := cs[[2]int{task, int(PrecisionInterface)}]
		sd := cs[[2]int{task, int(SDSSForm)}]
		if pi.MeanSecs >= sd.MeanSecs {
			t.Errorf("task %d: PI %.1fs not faster than SDSS %.1fs", task, pi.MeanSecs, sd.MeanSecs)
		}
		if sd.MeanSecs > 25 {
			t.Errorf("task %d: SDSS mean %.1fs implausibly slow", task, sd.MeanSecs)
		}
		// "The task accuracies were identical for tasks 2-4": both high.
		if pi.Accuracy < 0.8 || sd.Accuracy < 0.8 {
			t.Errorf("task %d accuracies too low: %v vs %v", task, pi.Accuracy, sd.Accuracy)
		}
	}
	// Task 1 accuracy gap: hand-written SQL is error-prone.
	if sdss1.Accuracy >= pi1.Accuracy {
		t.Errorf("SDSS task1 accuracy %.2f should trail PI %.2f", sdss1.Accuracy, pi1.Accuracy)
	}
}

// TestFig13LearningEffect: times fall with order for widget tasks, and
// do NOT fall for SDSS Task 1 (cap dominates).
func TestFig13LearningEffect(t *testing.T) {
	obs := Run(DefaultConfig())
	byOrder := ByOrder(obs)
	get := func(task int, cond Condition, order int) (float64, bool) {
		for _, c := range byOrder {
			if c.Task == task && c.Condition == cond && c.Order == order {
				return c.MeanSecs, true
			}
		}
		return 0, false
	}
	// PI Task 2 first-vs-last: learning should shave seconds.
	if first, ok1 := get(TaskArea, PrecisionInterface, 1); ok1 {
		if last, ok2 := get(TaskArea, PrecisionInterface, 4); ok2 {
			if last >= first {
				t.Errorf("no learning effect: order1=%.1fs order4=%.1fs", first, last)
			}
		}
	}
	// SDSS Task 1 stays at the cap regardless of order.
	for order := 1; order <= 4; order++ {
		if v, ok := get(TaskObjectID, SDSSForm, order); ok && v < 50 {
			t.Errorf("SDSS task1 at order %d = %.1fs, should stay near cap", order, v)
		}
	}
}

func TestRunDeterministicAndBalanced(t *testing.T) {
	a := Run(DefaultConfig())
	b := Run(DefaultConfig())
	if len(a) != len(b) || len(a) != 40*NumTasks {
		t.Fatalf("observations = %d, want %d", len(a), 40*NumTasks)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation not deterministic")
		}
	}
	n := map[Condition]int{}
	for _, o := range a {
		n[o.Condition]++
		if o.Millis <= 0 || o.Millis > timeCapMillis {
			t.Fatalf("time out of range: %v", o.Millis)
		}
		if o.Order < 1 || o.Order > NumTasks {
			t.Fatalf("order out of range: %d", o.Order)
		}
	}
	if n[PrecisionInterface] != n[SDSSForm] {
		t.Fatalf("unbalanced assignment: %v", n)
	}
}

// TestAnovaSignificance mirrors the paper's test: all three factors and
// the task × interface interaction are significant.
func TestAnovaSignificance(t *testing.T) {
	obs := Run(DefaultConfig())
	for _, ft := range Anova(obs) {
		if math.IsNaN(ft.F) || ft.F <= 0 {
			t.Errorf("%s: bad F", ft)
		}
		if ft.P > 1e-3 {
			t.Errorf("%s: not significant (paper reports p <= 2e-12)", ft)
		}
	}
}

// TestFDistribution sanity-checks the p-value machinery against known
// values: P(F(1,10) > 4.96) ≈ 0.05 and P(F(2,20) > 3.49) ≈ 0.05.
func TestFDistribution(t *testing.T) {
	cases := []struct {
		f      float64
		d1, d2 int
		want   float64
	}{
		{4.96, 1, 10, 0.05},
		{3.49, 2, 20, 0.05},
		{1.0, 5, 5, 0.5},
	}
	for _, c := range cases {
		got := fSurvival(c.f, c.d1, c.d2)
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("fSurvival(%v, %d, %d) = %v, want ≈%v", c.f, c.d1, c.d2, got, c.want)
		}
	}
	if got := fSurvival(0, 3, 3); got != 1 {
		t.Errorf("fSurvival(0) = %v", got)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := regIncBeta(2, 3, 0.4) + regIncBeta(3, 2, 0.6); math.Abs(got-1) > 1e-10 {
		t.Errorf("symmetry violated: %v", got)
	}
	if regIncBeta(2, 2, 0) != 0 || regIncBeta(2, 2, 1) != 1 {
		t.Error("boundary values wrong")
	}
}
