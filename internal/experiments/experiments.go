// Package experiments regenerates every table and figure of the
// Auto-FuzzyJoin paper's evaluation (§5) on the synthetic benchmark of
// internal/benchgen: Tables 2–7 and Figures 6(a–d), 7(a–d). Each
// experiment prints the same rows/series the paper reports and returns the
// aggregates for programmatic use (tests and benchmarks).
package experiments

import (
	"io"
	"math"
	"sort"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/baselines"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// Config controls an experiment run. Zero values take defaults sized for
// fast laptop runs; the cmd/experiments CLI exposes all of them.
type Config struct {
	// TaskIDs selects single-column benchmark tasks (default: all 50).
	TaskIDs []int
	// Scale is the benchgen size multiplier (default 0.25).
	Scale float64
	// Seed drives benchmark generation and baseline randomness.
	Seed int64
	// Space is the configuration space (default: full 140).
	Space []config.JoinFunction
	// Tau is the precision target τ (default 0.9).
	Tau float64
	// Steps is the threshold discretization s (default 50).
	Steps int
	// Beta is the blocking factor β (default 1.0).
	Beta float64
	// Supervised enables the slower supervised baselines.
	Supervised bool
	// Out receives the printed table (default io.Discard).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if len(c.TaskIDs) == 0 {
		c.TaskIDs = make([]int, benchgen.NumSingleColumnTasks())
		for i := range c.TaskIDs {
			c.TaskIDs[i] = i
		}
	}
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if len(c.Space) == 0 {
		c.Space = config.Space()
	}
	if c.Tau <= 0 {
		c.Tau = 0.9
	}
	if c.Steps <= 0 {
		c.Steps = 50
	}
	if c.Beta <= 0 {
		c.Beta = 1.0
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) coreOptions() core.Options {
	return core.Options{
		PrecisionTarget: c.Tau,
		Space:           c.Space,
		ThresholdSteps:  c.Steps,
		BlockingBeta:    c.Beta,
	}
}

// UnsupervisedMethods are the method columns shared by Tables 2, 5, 6.
var UnsupervisedMethods = []string{"Excel", "FW", "ZeroER", "ECM", "PP"}

// SupervisedMethods are the supervised comparison columns.
var SupervisedMethods = []string{"Magellan", "DM", "AL"}

// TaskResult is the per-dataset row of Table 2 (and the raw material for
// Tables 5 and 6).
type TaskResult struct {
	Name         string
	NL, NR       int
	UBR          float64
	Precision    float64 // AutoFJ actual precision
	Recall       float64 // AutoFJ actual recall fraction
	EstPrecision float64
	PEPCC        float64 // Pearson corr. of estimated vs actual precision
	AutoAUC      float64
	Program      string
	// MethodAR / MethodAUC hold adjusted-recall fraction and PR-AUC per
	// baseline name.
	MethodAR  map[string]float64
	MethodAUC map[string]float64
	// StaticAR[i] is join function i's AR fraction (BSJ raw material).
	StaticAR  []float64
	StaticAUC []float64
	// Ablations: actual recall fraction of AutoFJ-UC and AutoFJ-NR.
	ARUC, ARNR float64
	// MethodTime records wall-clock per method ("AutoFJ" included).
	MethodTime map[string]time.Duration
	Timing     core.Timing
}

// RunSingleTask executes AutoFJ, the ablations, and the baselines on one
// single-column task.
func RunSingleTask(task dataset.Task, cfg Config) TaskResult {
	cfg = cfg.withDefaults()
	left, right, truth := task.LeftKey(), task.RightKey(), task.Truth
	tr := TaskResult{
		Name: task.Name, NL: len(left), NR: len(right),
		MethodAR:   map[string]float64{},
		MethodAUC:  map[string]float64{},
		MethodTime: map[string]time.Duration{},
	}

	t0 := time.Now()
	res, err := core.JoinTables(left, right, cfg.coreOptions())
	tr.MethodTime["AutoFJ"] = time.Since(t0)
	if err != nil {
		return tr
	}
	tr.Timing = res.Timing
	ev := metrics.Evaluate(res.Mapping(), truth)
	tr.Precision = ev.Precision
	tr.Recall = ev.RecallFraction
	tr.EstPrecision = res.EstPrecision
	tr.Program = res.ProgramString()
	tr.PEPCC = pepcc(res, truth)
	tr.AutoAUC = metrics.PRAUC(autoScoredJoins(res), truth)

	// Ablations.
	optUC := cfg.coreOptions()
	optUC.SingleConfiguration = true
	if r2, err := core.JoinTables(left, right, optUC); err == nil {
		tr.ARUC = metrics.Evaluate(r2.Mapping(), truth).RecallFraction
	}
	optNR := cfg.coreOptions()
	optNR.DisableNegativeRules = true
	if r3, err := core.JoinTables(left, right, optNR); err == nil {
		tr.ARNR = metrics.Evaluate(r3.Mapping(), truth).RecallFraction
	}

	// Shared blocked candidates for the baselines.
	cands := baselines.Candidates(left, right, cfg.Beta)

	// Static sweep (BSJ) and recall upper bound (UBR).
	static := baselines.StaticJoins(left, right, cfg.Space, cands)
	tr.StaticAR = make([]float64, len(static))
	tr.StaticAUC = make([]float64, len(static))
	for fi, joins := range static {
		tr.StaticAR[fi] = metrics.AdjustedRecallFraction(joins, truth, tr.Precision)
		tr.StaticAUC[fi] = metrics.PRAUC(joins, truth)
	}
	tr.UBR = baselines.UpperBoundRecall(static, truth)

	record := func(name string, joins []metrics.ScoredJoin, tru metrics.Truth, dur time.Duration) {
		tr.MethodAR[name] = metrics.AdjustedRecallFraction(joins, tru, tr.Precision)
		tr.MethodAUC[name] = metrics.PRAUC(joins, tru)
		tr.MethodTime[name] = dur
	}

	t := time.Now()
	record("Excel", baselines.NewExcel(left, right).Joins(left, right, cands), truth, time.Since(t))
	t = time.Now()
	record("FW", baselines.FuzzyWuzzy{}.Joins(left, right, cands), truth, time.Since(t))
	t = time.Now()
	record("ZeroER", baselines.ZeroER{}.Joins(left, right, cands), truth, time.Since(t))
	t = time.Now()
	record("ECM", baselines.ECM{}.Joins(left, right, cands), truth, time.Since(t))
	t = time.Now()
	record("PP", baselines.PPJoin{MinSim: 0.3}.Joins(left, right), truth, time.Since(t))

	if cfg.Supervised {
		in := baselines.NewSupervisedInput(left, right, cands, truth, cfg.Seed)
		testTruth := in.TestTruth()
		t = time.Now()
		record("Magellan", baselines.Magellan(in), testTruth, time.Since(t))
		t = time.Now()
		dmJoins, dmTruth := baselines.DeepMatcherJoins(left, right, cands, truth, cfg.Seed)
		record("DM", dmJoins, dmTruth, time.Since(t))
		t = time.Now()
		record("AL", baselines.ActiveLearning(in), testTruth, time.Since(t))
	}
	return tr
}

// autoScoredJoins converts AutoFJ output into scored joins for the PR-AUC
// protocol. The primary confidence is the unsupervised precision estimate;
// because that estimate is tie-heavy (many joins at exactly 1.0), the join
// distance breaks ties so the sweep resolves a meaningful curve.
func autoScoredJoins(res *core.Result) []metrics.ScoredJoin {
	out := make([]metrics.ScoredJoin, len(res.Joins))
	for i, j := range res.Joins {
		out[i] = metrics.ScoredJoin{
			Right: j.Right,
			Left:  j.Left,
			Score: j.Precision + (1-j.Distance)*1e-3,
		}
	}
	return out
}

// pepcc computes the Pearson correlation between the estimated precision
// trace and the actual precision of the joins accumulated per iteration
// (the PEPCC column of Table 2). NaN when fewer than two iterations.
func pepcc(res *core.Result, truth metrics.Truth) float64 {
	if len(res.Trace) < 2 {
		return math.NaN()
	}
	// Joins carry the iteration at which they were first assigned.
	byIter := map[int][]core.Join{}
	for _, j := range res.Joins {
		byIter[j.Iteration] = append(byIter[j.Iteration], j)
	}
	var est, act []float64
	correct, joined := 0, 0
	for it := 1; it <= len(res.Trace); it++ {
		for _, j := range byIter[it] {
			joined++
			if tl, ok := truth[j.Right]; ok && tl == j.Left {
				correct++
			}
		}
		if joined == 0 {
			continue
		}
		est = append(est, res.Trace[it-1].EstPrecision)
		act = append(act, float64(correct)/float64(joined))
	}
	return metrics.Pearson(est, act)
}

// meanOf extracts and averages a per-task metric, skipping NaNs.
func meanOf(rs []TaskResult, f func(TaskResult) float64) float64 {
	var sum float64
	n := 0
	for _, r := range rs {
		v := f(r)
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// bestStaticFunction picks the join function with the best mean AR across
// tasks — the BSJ baseline definition.
func bestStaticFunction(rs []TaskResult) int {
	if len(rs) == 0 || len(rs[0].StaticAR) == 0 {
		return -1
	}
	nf := len(rs[0].StaticAR)
	best, bestMean := -1, -1.0
	for fi := 0; fi < nf; fi++ {
		var sum float64
		for _, r := range rs {
			sum += r.StaticAR[fi]
		}
		if m := sum / float64(len(rs)); m > bestMean {
			bestMean = m
			best = fi
		}
	}
	return best
}

// tasksFor generates the configured single-column tasks.
func tasksFor(cfg Config) []dataset.Task {
	out := make([]dataset.Task, 0, len(cfg.TaskIDs))
	for _, id := range cfg.TaskIDs {
		out = append(out, benchgen.SingleColumnTask(id, benchgen.Options{Seed: cfg.Seed, Scale: cfg.Scale}))
	}
	return out
}

// sortedMethodNames lists baseline names present in the results, in a
// stable order.
func sortedMethodNames(rs []TaskResult) []string {
	set := map[string]bool{}
	for _, r := range rs {
		for m := range r.MethodAR {
			set[m] = true
		}
	}
	var known []string
	known = append(known, UnsupervisedMethods...)
	known = append(known, SupervisedMethods...)
	var out []string
	for _, m := range known {
		if set[m] {
			out = append(out, m)
			delete(set, m)
		}
	}
	var rest []string
	for m := range set {
		rest = append(rest, m)
	}
	sort.Strings(rest)
	return append(out, rest...)
}
