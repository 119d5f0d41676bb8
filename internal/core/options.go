// Package core implements the Auto-FuzzyJoin algorithms: unsupervised
// precision estimation via reference-table 2d-balls (§3.1, Eq. 8–13), the
// greedy union-of-configurations search (Algorithm 1), negative-rule
// integration (Algorithm 2), and the multi-column forward-selection search
// (Algorithm 3).
package core

import (
	"errors"
	"math"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// Default parameter values from the paper's experimental setup (§5.1.3).
const (
	DefaultPrecisionTarget = 0.9
	DefaultThresholdSteps  = 50
	DefaultBlockingBeta    = 1.0
	DefaultWeightSteps     = 10
)

// Options configures a join run. The zero value is replaced by the paper's
// defaults; see the constants above. The precision-estimation ball is not
// an option: its radius is Eq. 8's 2θ (ballRadius).
type Options struct {
	// PrecisionTarget is τ: the greedy search adds configurations while the
	// estimated precision of the union stays above this value.
	PrecisionTarget float64
	// Space is the set of join functions to search; defaults to the full
	// 140-function space of Table 1.
	Space []config.JoinFunction
	// ThresholdSteps is s, the number of discretization steps for each
	// function's distance-threshold grid.
	ThresholdSteps int
	// BlockingBeta is β: each record keeps its top β·√|L| blocked
	// candidates.
	BlockingBeta float64
	// DisableNegativeRules turns off Algorithm 2 (the AutoFJ-NR ablation).
	DisableNegativeRules bool
	// SingleConfiguration restricts the output to the one best
	// configuration instead of a union (the AutoFJ-UC ablation).
	SingleConfiguration bool
	// WeightSteps is g, the discretization of column weights in the
	// multi-column search (Algorithm 3).
	WeightSteps int
	// Parallelism bounds the worker goroutines across the whole join path:
	// blocking (index build and per-record candidate queries), the
	// per-function distance pre-computation with its intra-function
	// sharding of right-record scans and L–L ball construction, and the
	// multi-column tensor build. 0 uses GOMAXPROCS, 1 forces sequential
	// execution. Every parallelism level produces identical output — work
	// is sharded over disjoint index ranges and merged order-free, so
	// results are bit-for-bit reproducible. JoinTables,
	// JoinMultiColumnTables, SelfJoin, and Dedup all honor this knob.
	Parallelism int
	// QueryCacheSize bounds the serving-path result cache (distinct query
	// surface forms whose final Match is retained; the cache flushes
	// wholesale when full): 0 uses the built-in default of 4096, a
	// negative value disables caching. Cached entries never change results
	// — they are keyed by the table generation, so any mutation
	// invalidates them — only whether a repeated query is re-scored. A
	// query longer than 64 KiB is never cached, so the cached keys hold at
	// most QueryCacheSize × 64 KiB bytes (256 MiB at the default).
	QueryCacheSize int
}

// withDefaults fills unset fields with the paper's defaults.
func (o Options) withDefaults() Options {
	if o.PrecisionTarget <= 0 {
		o.PrecisionTarget = DefaultPrecisionTarget
	}
	if len(o.Space) == 0 {
		o.Space = config.Space()
	}
	if o.ThresholdSteps <= 0 {
		o.ThresholdSteps = DefaultThresholdSteps
	}
	if o.BlockingBeta <= 0 {
		o.BlockingBeta = DefaultBlockingBeta
	}
	if o.WeightSteps <= 1 {
		o.WeightSteps = DefaultWeightSteps
	}
	return o
}

// Validate reports option errors that withDefaults cannot repair.
func (o Options) Validate() error {
	// Every ordered comparison with NaN is false, so NaN is refused by
	// name: greedy never stops on a NaN precision target.
	if o.PrecisionTarget > 1 || math.IsNaN(o.PrecisionTarget) {
		return errors.New("core: precision target must be in (0, 1]")
	}
	if math.IsNaN(o.BlockingBeta) || math.IsInf(o.BlockingBeta, 0) {
		return errors.New("core: blocking factor must be finite")
	}
	if o.ThresholdSteps < 0 || o.WeightSteps < 0 || o.Parallelism < 0 {
		return errors.New("core: negative step or parallelism values are invalid")
	}
	return nil
}
