package core

import (
	"errors"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
)

// JoinTables runs single-column Auto-FuzzyJoin (Algorithm 1) on the
// reference table left and query table right, returning the selected
// program and the induced many-to-one join.
func JoinTables(left, right []string, opt Options) (*Result, error) {
	return joinTables(left, right, opt, idPairs)
}

// joinTables is JoinTables scoring pairs through the evaluator that pairs
// builds.
func joinTables(left, right []string, opt Options, pairs pairSource) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(left) == 0 || len(right) == 0 {
		return &Result{}, nil
	}

	// Algorithm 1 lines 1-2: blocking, then negative rules that veto L-R
	// candidates.
	tBlock := time.Now()
	lrCand, llCand, rules := blockCandidates(left, right, opt, !opt.DisableNegativeRules)
	blockingTime := time.Since(tBlock)

	// Lines 3-4: distances and precision pre-computation, then the greedy
	// union search — all inside run().
	tProf := time.Now()
	newEval := pairs(opt.Space, opt.Parallelism, left, right, lrCand, llCand)
	profileTime := time.Since(tProf)

	in := &engineInput{
		space:   opt.Space,
		steps:   opt.ThresholdSteps,
		nL:      len(left),
		nR:      len(right),
		lrCand:  lrCand,
		llCand:  llCand,
		newEval: newEval,
	}
	res := run(in, opt)
	res.NegativeRules = rules
	res.BlockingBeta = opt.BlockingBeta
	res.Timing.Blocking = blockingTime
	res.Timing.Profile = profileTime
	return res, nil
}

// pairSource builds the record representations of one column — the cells
// of left and right, or of left alone for a self-join (right nil) — and
// returns engineInput's per-worker evaluator over the blocked pairs.
type pairSource func(space []config.JoinFunction, parallelism int, left, right []string, lrCand, llCand [][]int32) func() pairEval

// idPairs is the pairSource learning runs: every record is derived once
// into an id view under one vocabulary closed over left ∪ right
// (config.LearnProfiles), and pairs are scored by Evaluator.IDDistances.
func idPairs(space []config.JoinFunction, parallelism int, left, right []string, lrCand, llCand [][]int32) func() pairEval {
	views := config.LearnProfiles(space, parallelism, left, right)
	viewL, viewR := views[0], views[1]
	if right == nil { // a self-join: left plays both sides
		viewR = viewL
	}
	ev := config.NewEvaluator(space)
	return func() pairEval {
		sc := ev.NewScratch()
		return pairEval{
			lr: func(r, ci int, out []float64) {
				ev.IDDistances(&viewL[lrCand[r][ci]], &viewR[r], config.AllGroups, sc, out)
			},
			ll: func(l, ci int, need config.GroupMask, out []float64) {
				ev.IDDistances(&viewL[l], &viewL[llCand[l][ci]], need, sc, out)
			},
			mask: func(fns []fnCenter) config.GroupMask {
				var m config.GroupMask
				for _, fc := range fns {
					m |= ev.Group(int(fc.fi))
				}
				return m
			},
		}
	}
}

// blockCandidates runs Algorithm 1 lines 1–2 on blocking keys: top-k
// blocking for the L–R and L–L pairs (Block; right may be nil for a
// self-join) and, when learnRules is set, negative rules learned from the
// L–L pairs (Algorithm 2) that then veto L–R candidates through the same
// Frozen.BlocksPair scan a serving table runs. Each record's word set is
// computed once, R's only when a rule was learned. rules is nil when none
// are learned.
func blockCandidates(left, right []string, opt Options, learnRules bool) (lrCand, llCand [][]int32, rules *negrule.Set) {
	blk := blocking.Block(left, right, opt.BlockingBeta, opt.Parallelism)
	llCand = make([][]int32, len(left))
	for i, cands := range blk.LL {
		ids := make([]int32, len(cands))
		for ci, c := range cands {
			ids[ci] = c.ID
		}
		llCand[i] = ids
	}
	var veto *negrule.Frozen
	var leftWords, rightWords [][]string
	if learnRules {
		leftWords = negrule.WordSets(left, opt.Parallelism)
		rules = negrule.NewSet()
		for i, cands := range blk.LL {
			for _, c := range cands {
				rules.LearnPair(leftWords[i], leftWords[c.ID])
			}
		}
		if rules.Len() > 0 {
			veto = rules.Freeze(nil, opt.Parallelism)
			rightWords = negrule.WordSets(right, opt.Parallelism)
		}
	}
	lrCand = make([][]int32, len(right))
	for j, cands := range blk.LR {
		ids := make([]int32, 0, len(cands))
		for _, c := range cands {
			if veto != nil && veto.BlocksPair(leftWords[c.ID], rightWords[j]) {
				continue
			}
			ids = append(ids, c.ID)
		}
		lrCand[j] = ids
	}
	return lrCand, llCand, rules
}

// errColumnShape is returned when multi-column inputs are ragged.
var errColumnShape = errors.New("core: all columns of a table must have the same length")
