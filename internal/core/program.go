package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// Program is the serializable form of a learned fuzzy-join program: the
// union of configurations plus the learned negative rules. A Program can
// be saved once and re-applied to fresh right tables — the deployment mode
// the paper's "Explainable" property enables. A compiled program estimates
// precision over the 2θ ball of Eq. 8; the radius is not part of the wire
// format (see DecodeProgram for the legacy key).
type Program struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// Configurations is the disjunction of ⟨f, θ⟩ predicates.
	Configurations []ConfigurationSpec `json:"configurations"`
	// NegativeRules lists word pairs that veto joins (Algorithm 2).
	NegativeRules [][2]string `json:"negative_rules,omitempty"`
	// BlockingBeta is the blocking factor to use when applying.
	BlockingBeta float64 `json:"blocking_beta,omitempty"`
	// Columns and Weights carry the multi-column selection (empty for
	// single-column programs): Columns[i] is a column index into the
	// original tables and Weights[i] its weight in the combined distance.
	Columns []int     `json:"columns,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// ConfigurationSpec is the JSON form of one configuration.
type ConfigurationSpec struct {
	Preprocess   string  `json:"preprocess"`
	Tokenization string  `json:"tokenization,omitempty"`
	TokenWeights string  `json:"token_weights,omitempty"`
	Distance     string  `json:"distance"`
	Threshold    float64 `json:"threshold"`
}

// Program extracts the serializable program from a join result.
func (r *Result) ToProgram() *Program {
	p := &Program{Version: 1, BlockingBeta: r.BlockingBeta}
	for _, c := range r.Program {
		spec := ConfigurationSpec{
			Preprocess: c.Function.Pre.String(),
			Distance:   c.Function.Dist.String(),
			Threshold:  c.Threshold,
		}
		if c.Function.Dist.Class() == config.SetBased {
			spec.Tokenization = c.Function.Tok.String()
			spec.TokenWeights = c.Function.Weight.String()
		}
		p.Configurations = append(p.Configurations, spec)
	}
	if r.NegativeRules != nil {
		for _, rule := range r.NegativeRules.Rules() {
			p.NegativeRules = append(p.NegativeRules, [2]string{rule.A, rule.B})
		}
	}
	p.Columns = append(p.Columns, r.Columns...)
	p.Weights = append(p.Weights, r.Weights...)
	return p
}

// MarshalJSON-friendly helpers.

// Encode renders the program as JSON.
func (p *Program) Encode() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodeProgram parses a JSON program. Older programs may carry a
// ball_radius_factor key: 0 or 2 (the Eq. 8 radius) loads, and any other
// value is an error, so a saved program never silently changes its
// precision estimates.
func DecodeProgram(data []byte) (*Program, error) {
	var p struct {
		Program
		LegacyBallRadius float64 `json:"ball_radius_factor"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("core: decoding program: %w", err)
	}
	if p.Version != 1 {
		return nil, fmt.Errorf("core: unsupported program version %d", p.Version)
	}
	if r := p.LegacyBallRadius; r != 0 && r != ballRadius {
		return nil, fmt.Errorf("core: program sets ball_radius_factor %g; only the Eq. 8 radius %d is supported", r, ballRadius)
	}
	if _, err := p.configurations(); err != nil {
		return nil, err
	}
	return &p.Program, nil
}

// configurations resolves the spec strings back to join functions.
func (p *Program) configurations() ([]Configuration, error) {
	out := make([]Configuration, 0, len(p.Configurations))
	for i, spec := range p.Configurations {
		f, err := spec.function()
		if err == nil && (spec.Threshold < 0 || spec.Threshold > 1) {
			err = fmt.Errorf("threshold %f out of [0,1]", spec.Threshold)
		}
		if err != nil {
			return nil, fmt.Errorf("core: configuration %d: %w", i, err)
		}
		out = append(out, Configuration{Function: f, Threshold: spec.Threshold})
	}
	return out, nil
}

// function resolves the spec's strings to its join function; only a
// set-based distance reads the tokenization and token weights.
func (spec ConfigurationSpec) function() (f config.JoinFunction, err error) {
	if f.Pre, err = parseName("pre-processing", spec.Preprocess, textproc.Options()); err != nil {
		return f, err
	}
	if f.Dist, err = parseName("distance", spec.Distance, []config.Distance{
		config.ED, config.JW, config.JD, config.CD, config.DD, config.MD,
		config.ID, config.CJD, config.CCD, config.CDD, config.GED,
		config.ME, config.SW,
	}); err != nil || f.Dist.Class() != config.SetBased {
		return f, err
	}
	if f.Tok, err = parseName("tokenization", spec.Tokenization, tokenize.Options()); err != nil {
		return f, err
	}
	f.Weight, err = parseName("token weights", spec.TokenWeights, weights.Options())
	return f, err
}

// parseName returns the option of opts whose String is s.
func parseName[T fmt.Stringer](kind, s string, opts []T) (T, error) {
	for _, o := range opts {
		if o.String() == s {
			return o, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q", kind, s)
}

// Apply runs a saved single-column program against a fresh (left, right)
// pair: the program is compiled into a Matcher, a Table over left's
// records (see Compile), and every right record is matched against it,
// reproducing the learning-time union semantics — each configuration
// joins a record to its closest blocked candidate within the threshold
// (Eq. 1), conflicts resolve toward the higher estimated precision, and
// negative rules veto pairs. No re-learning happens. Prefer Compile +
// MatchBatch when the same reference table serves more than one call:
// Apply rebuilds the table every time. For programs learned by the
// multi-column search use ApplyMultiColumn.
func (p *Program) Apply(left, right []string) ([]Join, error) {
	//autofj:ctx-ok convenience edge of the public API; ApplyContext is the cancellable path
	return p.ApplyContext(context.Background(), left, right)
}

// ApplyContext is Apply with caller-controlled cancellation: ctx bounds
// the batch matching, so a deadline or cancel aborts a large join
// mid-flight instead of running it to completion.
func (p *Program) ApplyContext(ctx context.Context, left, right []string) ([]Join, error) {
	if len(p.Columns) > 0 {
		return nil, errors.New("core: program was learned on multiple columns (non-empty Columns); Apply would silently drop the column selection and weights — use ApplyMultiColumn")
	}
	m, err := p.Compile(left, Options{})
	if err != nil {
		return nil, err
	}
	matches, err := m.MatchBatch(ctx, right)
	if err != nil {
		return nil, err
	}
	return matchesToJoins(matches), nil
}

// ApplyMultiColumn re-applies a program learned by the multi-column search:
// the stored column selection and weights reconstruct the combined distance
// Fw(l, r) = Σ w_j f(l[j], r[j]) of Definition 4.1. Columns of the fresh
// tables are addressed by the stored column indexes. Prefer
// CompileMultiColumn + MatchRows when the same reference table serves more
// than one call.
func (p *Program) ApplyMultiColumn(leftCols, rightCols [][]string) ([]Join, error) {
	//autofj:ctx-ok convenience edge of the public API; ApplyMultiColumnContext is the cancellable path
	return p.ApplyMultiColumnContext(context.Background(), leftCols, rightCols)
}

// ApplyMultiColumnContext is ApplyMultiColumn with caller-controlled
// cancellation; ctx bounds the row matching.
func (p *Program) ApplyMultiColumnContext(ctx context.Context, leftCols, rightCols [][]string) ([]Join, error) {
	if len(p.Columns) == 0 || len(p.Columns) != len(p.Weights) {
		return nil, errors.New("core: program has no multi-column weights; use Apply")
	}
	for _, c := range p.Columns {
		if c < 0 || c >= len(leftCols) || c >= len(rightCols) {
			return nil, fmt.Errorf("core: program column %d out of range", c)
		}
	}
	if len(rightCols) != len(leftCols) {
		return nil, fmt.Errorf("core: right table has %d columns, reference table %d; the blocking key concatenates the full row, so arities must agree", len(rightCols), len(leftCols))
	}
	nR := len(rightCols[0])
	for _, col := range rightCols {
		if len(col) != nR {
			return nil, errColumnShape
		}
	}
	m, err := p.CompileMultiColumn(leftCols, Options{})
	if err != nil {
		return nil, err
	}
	matches, err := m.MatchRows(ctx, columnRows(rightCols))
	if err != nil {
		return nil, err
	}
	return matchesToJoins(matches), nil
}

// matchesToJoins converts an index-aligned Match slice into the sparse
// Join form of the learning output. A program adds one configuration per
// greedy iteration, so the iteration is recoverable as Config+1.
func matchesToJoins(matches []Match) []Join {
	var out []Join
	for r, mt := range matches {
		if mt.Left < 0 {
			continue
		}
		out = append(out, Join{
			Right:     r,
			Left:      mt.Left,
			Distance:  mt.Distance,
			Precision: mt.Precision,
			Config:    mt.Config,
			Iteration: mt.Config + 1,
		})
	}
	return out
}
