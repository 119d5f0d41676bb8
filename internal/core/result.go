package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
)

// Timing breaks the run down into the components of Figure 7(d):
// blocking (+negative rules), building the records' representations
// (the closed vocabulary and every record's id row), the distance/precision
// pre-computation of Algorithm 1 lines 3-4, and the greedy search of
// lines 5-15. Each is the wall time of its stage. A single-column run or
// self-join on more than one worker builds the representations while
// blocking runs, so Blocking and Profile then overlap.
type Timing struct {
	Blocking   time.Duration
	Profile    time.Duration
	Precompute time.Duration
	Greedy     time.Duration
}

// Total is the sum of the component times. Where Blocking and Profile
// overlap it exceeds the run's wall time by their overlap.
func (t Timing) Total() time.Duration {
	return t.Blocking + t.Profile + t.Precompute + t.Greedy
}

// Configuration is one selected ⟨f, θ⟩ pair of the output program.
type Configuration struct {
	Function  config.JoinFunction
	Threshold float64
}

// String renders the configuration as a predicate, e.g.
// "L/SP/EW/JD(l, r) <= 0.20".
func (c Configuration) String() string {
	return fmt.Sprintf("%s(l, r) <= %.4f", c.Function.Name(), c.Threshold)
}

// Join is one output row mapping a right record to a left record.
type Join struct {
	Right int // index into R
	Left  int // index into L
	// Distance is the distance under the configuration that joined the pair.
	Distance float64
	// Precision is the unsupervised precision estimate of this join
	// (Eq. 9): 1 / (number of L records in the 2θ ball around Left).
	Precision float64
	// Config indexes Result.Program: which configuration produced the join.
	Config int
	// Iteration is the greedy iteration at which the row was first joined
	// (used by the PEPCC evaluation).
	Iteration int
}

// IterationStat records the state of the greedy search after an iteration.
type IterationStat struct {
	Config       Configuration
	EstPrecision float64
	EstRecall    float64 // expected true positives so far
	Joined       int     // rows joined so far
}

// Result is the output of a join run: the selected program (a union of
// configurations, §2.2), the induced join mapping, and the unsupervised
// quality estimates.
type Result struct {
	Program []Configuration
	Joins   []Join
	// EstPrecision and EstRecall are the label-free estimates of Eq. 13.
	EstPrecision float64
	EstRecall    float64
	// Trace records per-iteration estimates, enabling the paper's PEPCC
	// (precision-estimate Pearson correlation) evaluation.
	Trace []IterationStat
	// NegativeRules is the learned rule set (nil when disabled).
	NegativeRules *negrule.Set
	// Columns and Weights are set by the multi-column search: the selected
	// column indexes and their weights, aligned pairwise.
	Columns []int
	Weights []float64
	// BlockingBeta records the resolved β the program was learned under,
	// so ToProgram can serialize it and a compiled Matcher blocks the
	// same way. The ball radius needs no record: it is always 2θ.
	BlockingBeta float64
	// Timing records per-component running time.
	Timing Timing
}

// Explain renders a human-readable account of one join: which
// configuration produced it, at what distance versus its threshold, and
// the unsupervised confidence — the per-row face of the paper's
// "Explainable" property.
func (r *Result) Explain(j Join) string {
	if j.Config < 0 || j.Config >= len(r.Program) {
		return fmt.Sprintf("right[%d] -> left[%d]: unknown configuration", j.Right, j.Left)
	}
	c := r.Program[j.Config]
	confidence := "no precision estimate"
	if j.Precision > 0 {
		confidence = fmt.Sprintf("estimated precision %.2f = 1/%d reference records in the 2θ-ball",
			j.Precision, int(1/j.Precision+0.5))
	}
	return fmt.Sprintf(
		"right[%d] -> left[%d]: %s distance %.4f <= threshold %.4f (configuration %d of %d, iteration %d); %s",
		j.Right, j.Left, c.Function.Name(), j.Distance, c.Threshold,
		j.Config+1, len(r.Program), j.Iteration, confidence)
}

// Mapping returns the right→left assignment as a map.
func (r *Result) Mapping() map[int]int {
	m := make(map[int]int, len(r.Joins))
	for _, j := range r.Joins {
		m[j.Right] = j.Left
	}
	return m
}

// ProgramString renders the full disjunctive program, the explainable
// artifact highlighted in §1 ("Explainable").
func (r *Result) ProgramString() string {
	if len(r.Program) == 0 {
		return "(empty program)"
	}
	parts := make([]string, len(r.Program))
	for i, c := range r.Program {
		parts[i] = c.String()
	}
	return strings.Join(parts, "  OR  ")
}
