// Package study simulates the §7.4 user study. The paper recruited 40
// engineers; we cannot, so simulated participants complete the four
// SDSS tasks under both interfaces using the same fitted widget cost
// model (§4.3) that drives widget selection, plus an orientation cost
// proportional to interface complexity, an order-dependent learning
// effect, and the "write SQL" fallback for Task 1 on the SDSS form
// (which has no object-id widgets). The simulation reproduces the
// study's quantitative *shape*: Task 1 at the 60 s cap on the SDSS
// form vs ~10 s on Precision Interfaces, a small PI advantage on Tasks
// 2–4, identical accuracies for Tasks 2–4, and learning effects by
// order except for SDSS Task 1 (Figures 8c and 13).
package study

import (
	"math"
	"math/rand"

	"repro/internal/widgets"
)

// Condition is the interface a participant is assigned.
type Condition int

const (
	// PrecisionInterface is the generated task-specific interface.
	PrecisionInterface Condition = iota
	// SDSSForm is the (re-styled) SDSS search form baseline.
	SDSSForm
)

func (c Condition) String() string {
	if c == PrecisionInterface {
		return "precision-interfaces"
	}
	return "sdss-form"
}

// The four §7.4 tasks.
const (
	TaskObjectID  = 0 // find objects with an objectId
	TaskArea      = 1 // find objects in a certain area
	TaskColor     = 2 // find objects within a color range
	TaskRedshift  = 3 // find objects within a red-shift range
	NumTasks      = 4
	timeCapMillis = 60000 // the study capped each task at 60 s
)

// TaskNames are the display names used in figures.
var TaskNames = [NumTasks]string{"Task 1 (objectId)", "Task 2 (area)", "Task 3 (color)", "Task 4 (redshift)"}

// widgetUse describes one widget interaction a task requires: the
// widget type used and its domain size (cost model input).
type widgetUse struct {
	typ  *widgets.Type
	opts int
}

// interfaceModel describes one study condition: the number of visible
// widgets (orientation cost scales with it) and, per task, the widget
// interactions required — or none, meaning the user must hand-write SQL.
type interfaceModel struct {
	visibleWidgets int
	perTask        [NumTasks][]widgetUse
}

// formEntry models typing a short value into a form text box (~1.8 s).
// It is deliberately cheaper than the widget-selection textbox constant
// of Example 4.4, which prices *choosing among a large domain* via free
// text, not entering one known number.
var formEntry = &widgets.Type{Name: "textbox-entry", Kind: 0,
	Cost: widgets.CostFunc{A0: 1800}}

// piModel: the generated interface has one dedicated widget group per
// task (Figure 8b): a drop-down plus an id entry for object lookup, and
// paired range inputs for area/color/redshift.
var piModel = interfaceModel{
	visibleWidgets: 8,
	perTask: [NumTasks][]widgetUse{
		TaskObjectID: {{widgets.Dropdown, 3}, {formEntry, 1}},
		TaskArea:     {{widgets.Slider, 20}, {widgets.Slider, 20}},
		TaskColor:    {{widgets.Slider, 12}, {widgets.Slider, 12}},
		TaskRedshift: {{widgets.Slider, 16}, {widgets.Slider, 16}},
	},
}

// sdssModel: the search form exposes many general-purpose text boxes;
// tasks 2-4 are each two text entries; task 1 has no widgets at all
// (nil) and falls back to hand-written SQL.
var sdssModel = interfaceModel{
	visibleWidgets: 24,
	perTask: [NumTasks][]widgetUse{
		TaskObjectID: nil, // "users need to manually write queries"
		TaskArea:     {{formEntry, 1}, {formEntry, 1}},
		TaskColor:    {{formEntry, 1}, {formEntry, 1}},
		TaskRedshift: {{formEntry, 1}, {formEntry, 1}},
	},
}

// Observation is one (participant, task) measurement.
type Observation struct {
	Participant int
	Condition   Condition
	Task        int
	Order       int // 1-based position of the task in the participant's sequence
	Millis      float64
	Correct     bool
}

// Config tunes the simulation; Default matches the paper's setup.
type Config struct {
	Participants int   // total, split evenly between conditions
	Seed         int64 // deterministic
}

// DefaultConfig mirrors §7.4: 40 participants, random assignment.
func DefaultConfig() Config { return Config{Participants: 40, Seed: 2019} }

// Run simulates the study and returns all observations.
func Run(cfg Config) []Observation {
	r := rand.New(rand.NewSource(cfg.Seed))
	var out []Observation
	for p := 0; p < cfg.Participants; p++ {
		cond := PrecisionInterface
		if p%2 == 1 {
			cond = SDSSForm
		}
		order := r.Perm(NumTasks)
		for pos, task := range order {
			obs := simulateTask(r, cond, task, pos+1)
			obs.Participant = p
			out = append(out, obs)
		}
	}
	return out
}

// simulateTask models one task completion.
//
// time = comprehension + orientation·learning + Σ widget costs + submit
//
// comprehension is reading the task prompt (~4 s); orientation is
// scanning the interface (per visible widget) and shrinks as the
// participant completes more tasks (the Figure 13 learning effect);
// widget costs come from the §4.3 cost model with multiplicative noise.
func simulateTask(r *rand.Rand, cond Condition, task, order int) Observation {
	model := piModel
	if cond == SDSSForm {
		model = sdssModel
	}
	uses := model.perTask[task]
	if uses == nil {
		// Hand-written SQL fallback: most participants hit the 60 s cap.
		t := 52000 + r.Float64()*16000
		if t > timeCapMillis {
			t = timeCapMillis
		}
		return Observation{Condition: cond, Task: task, Order: order,
			Millis: t, Correct: r.Float64() < 0.35}
	}
	comprehension := 5000 + r.NormFloat64()*400
	learning := 1.0
	for i := 1; i < order; i++ {
		learning *= 0.62 // each completed task makes orientation much faster
	}
	orientation := float64(model.visibleWidgets) * 300 * learning
	interact := 0.0
	for _, u := range uses {
		jitter := 1 + r.NormFloat64()*0.15
		if jitter < 0.5 {
			jitter = 0.5
		}
		interact += u.typ.Cost.Eval(u.opts) * jitter
	}
	submit := 600 + r.Float64()*300
	t := comprehension + orientation + interact + submit
	if t > timeCapMillis {
		t = timeCapMillis
	}
	// Tasks with dedicated widgets are highly accurate under both
	// conditions ("task accuracies were identical for tasks 2-4").
	return Observation{Condition: cond, Task: task, Order: order,
		Millis: t, Correct: r.Float64() < 0.95}
}

// CellStat summarizes one (task, condition) cell of Figure 8c.
type CellStat struct {
	Task      int
	Condition Condition
	N         int
	MeanSecs  float64
	CI95Secs  float64 // 95% confidence half-interval
	Accuracy  float64
}

// Summarize computes the Figure 8c table from raw observations.
func Summarize(obs []Observation) []CellStat {
	type key struct {
		task int
		cond Condition
	}
	groups := map[key][]Observation{}
	for _, o := range obs {
		k := key{o.Task, o.Condition}
		groups[k] = append(groups[k], o)
	}
	var out []CellStat
	for task := 0; task < NumTasks; task++ {
		for _, cond := range []Condition{PrecisionInterface, SDSSForm} {
			g := groups[key{task, cond}]
			if len(g) == 0 {
				continue
			}
			mean, sd := meanStd(g)
			acc := 0.0
			for _, o := range g {
				if o.Correct {
					acc++
				}
			}
			out = append(out, CellStat{
				Task:      task,
				Condition: cond,
				N:         len(g),
				MeanSecs:  mean / 1000,
				CI95Secs:  1.96 * sd / sqrtf(len(g)) / 1000,
				Accuracy:  acc / float64(len(g)),
			})
		}
	}
	return out
}

// OrderCell is one point of Figure 13: mean time for a task when it was
// the participant's order-th task.
type OrderCell struct {
	Task      int
	Condition Condition
	Order     int
	MeanSecs  float64
	N         int
}

// ByOrder computes the Figure 13 series.
func ByOrder(obs []Observation) []OrderCell {
	type key struct {
		task, order int
		cond        Condition
	}
	sum := map[key]float64{}
	n := map[key]int{}
	for _, o := range obs {
		k := key{o.Task, o.Order, o.Condition}
		sum[k] += o.Millis
		n[k]++
	}
	var out []OrderCell
	for task := 0; task < NumTasks; task++ {
		for order := 1; order <= NumTasks; order++ {
			for _, cond := range []Condition{PrecisionInterface, SDSSForm} {
				k := key{task, order, cond}
				if n[k] == 0 {
					continue
				}
				out = append(out, OrderCell{
					Task: task, Condition: cond, Order: order,
					MeanSecs: sum[k] / float64(n[k]) / 1000, N: n[k],
				})
			}
		}
	}
	return out
}

func meanStd(g []Observation) (mean, sd float64) {
	for _, o := range g {
		mean += o.Millis
	}
	mean /= float64(len(g))
	if len(g) < 2 {
		return mean, 0
	}
	for _, o := range g {
		d := o.Millis - mean
		sd += d * d
	}
	sd /= float64(len(g) - 1)
	return mean, math.Sqrt(sd)
}

func sqrtf(n int) float64 { return math.Sqrt(float64(n)) }
