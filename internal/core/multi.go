package core

import (
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
)

// columnTensors holds, for one column, the per-function distances of every
// blocked pair, flattened with shared offsets. Weighted multi-column
// distances are then linear combinations of these tensors.
type columnTensors struct {
	lr [][]float32 // [fi][flat pair]
	ll [][]float32
}

// JoinMultiColumnTables runs multi-column Auto-FuzzyJoin (Algorithm 3).
// leftCols[j] and rightCols[j] are the j-th column of each table; all
// columns of a table must share the same length. The search forward-selects
// columns, assigns weights from a g-step grid, and reuses the single-column
// engine on the weighted distances (with a single distance function shared
// across columns, as in §5.2.2). Missing cells are empty strings and two
// missing cells compare at maximal distance.
func JoinMultiColumnTables(leftCols, rightCols [][]string, opt Options) (*Result, error) {
	return joinMultiColumn(leftCols, rightCols, opt, idPairs)
}

// joinMultiColumn is JoinMultiColumnTables scoring each column's pairs
// through the evaluator that pairs builds.
func joinMultiColumn(leftCols, rightCols [][]string, opt Options, pairs pairSource) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	m := len(leftCols)
	if m == 0 || len(rightCols) != m {
		return nil, errColumnShape
	}
	nL, nR := len(leftCols[0]), len(rightCols[0])
	for j := 0; j < m; j++ {
		if len(leftCols[j]) != nL || len(rightCols[j]) != nR {
			return nil, errColumnShape
		}
	}
	if nL == 0 || nR == 0 {
		return &Result{}, nil
	}

	// Blocking and negative rules operate on the concatenated record so
	// they need no configuration, exactly like the single-column default.
	leftCat := concatColumns(leftCols)
	rightCat := concatColumns(rightCols)
	tBlock := time.Now()
	b := blockCandidates(leftCat, rightCat, opt, !opt.DisableNegativeRules)
	lrCand, llCand, rules := b.lrCand, b.llCand, b.rules
	blockingTime := time.Since(tBlock)

	// Flattened pair offsets shared by all columns and functions.
	lrOff := offsets(lrCand)
	llOff := offsets(llCand)

	// Per-column tensors: distance of every blocked pair under every
	// function, computed once and reused across the weight search.
	tensors := make([]*columnTensors, m)
	var profileTime time.Duration
	for j := 0; j < m; j++ {
		tProf := time.Now()
		newEval, _ := pairs(opt.Space, opt.Parallelism, leftCols[j], rightCols[j], lrCand, llCand)
		profileTime += time.Since(tProf)
		tensors[j] = buildColumnTensors(len(opt.Space), leftCols[j], rightCols[j], newEval, lrCand, llCand, lrOff, llOff, opt.Parallelism)
	}

	// weighted runs Algorithm 1 on the weighted combination of columns.
	weighted := func(w []float64) *Result {
		active := make([]int, 0, m)
		for j, wj := range w {
			if wj > 0 {
				active = append(active, j)
			}
		}
		in := &engineInput{
			space:  opt.Space,
			steps:  opt.ThresholdSteps,
			nL:     nL,
			nR:     nR,
			lrCand: lrCand,
			llCand: llCand,
			// Weighted tensor lookups need no kernel scratch; the fused
			// "evaluation" is a per-function linear combination of the
			// per-column tensors computed once before the weight search.
			// Each product is rounded (float64(x*y)) before it is summed,
			// so no architecture fuses it into a multiply-add.
			newEval: func() pairEval {
				return pairEval{
					lr: func(r, ci int, _, out []float64) {
						idx := int(lrOff[r]) + ci
						for fi := range out {
							var d float64
							for _, j := range active {
								d += float64(w[j] * float64(tensors[j].lr[fi][idx]))
							}
							out[fi] = d
						}
					},
					ll: func(l, ci int, _ config.GroupMask, _, out []float64) {
						idx := int(llOff[l]) + ci
						for fi := range out {
							var d float64
							for _, j := range active {
								d += float64(w[j] * float64(tensors[j].ll[fi][idx]))
							}
							out[fi] = d
						}
					},
				}
			},
		}
		return run(in, opt)
	}

	// Algorithm 3: forward selection over columns with weight inheritance.
	g := opt.WeightSteps
	w := make([]float64, m)
	remaining := make([]bool, m)
	for j := range remaining {
		remaining[j] = true
	}
	var best *Result
	for {
		var iterBest *Result
		var iterW []float64
		iterCol := -1
		for j := 0; j < m; j++ {
			if !remaining[j] {
				continue
			}
			for a := 1; a < g; a++ {
				alpha := float64(a) / float64(g)
				wTry := make([]float64, m)
				for x := range w {
					wTry[x] = (1 - alpha) * w[x]
				}
				wTry[j] += alpha
				res := weighted(wTry)
				if iterBest == nil || res.EstRecall > iterBest.EstRecall {
					iterBest = res
					iterW = wTry
					iterCol = j
				}
			}
		}
		if iterBest == nil {
			break
		}
		if best != nil && iterBest.EstRecall <= best.EstRecall {
			break // adding a column no longer improves estimated recall
		}
		best = iterBest
		w = iterW
		// Distances are scale-invariant in w (thresholds adapt), but the
		// next iteration's (1-α)w + αe mixing grid assumes w sums to 1, so
		// normalize between iterations and for reporting.
		var sum float64
		for _, wj := range w {
			sum += wj
		}
		if sum > 0 {
			for j := range w {
				w[j] /= sum
			}
		}
		remaining[iterCol] = false
		allUsed := true
		for _, rem := range remaining {
			if rem {
				allUsed = false
				break
			}
		}
		if allUsed {
			break
		}
	}
	if best == nil {
		best = &Result{}
	} else {
		// The selected run used a pre-normalization weight vector; re-run
		// once with the final normalized weights so the reported
		// thresholds live on the same distance scale as the reported
		// weights (required for Program.ApplyMultiColumn). The joins are
		// identical up to this uniform rescaling.
		best = weighted(w)
	}
	best.NegativeRules = rules
	best.BlockingBeta = opt.BlockingBeta
	best.Timing.Blocking = blockingTime
	best.Timing.Profile = profileTime
	for j, wj := range w {
		if wj > 0 {
			best.Columns = append(best.Columns, j)
			best.Weights = append(best.Weights, wj)
		}
	}
	return best, nil
}

// buildColumnTensors evaluates all numFn join functions on every blocked
// pair of one column (cells lcol/rcol), pair-major: workers shard over
// records, each with its own evaluator from newEval, and one fused pass
// per candidate pair fills the whole function axis of the tensor (0 means
// GOMAXPROCS). Two empty cells compare at maximal distance (missing-value
// convention of §5.2.2).
func buildColumnTensors(numFn int, lcol, rcol []string, newEval func() pairEval, lrCand, llCand [][]int32, lrOff, llOff []int32, parallelism int) *columnTensors {
	nLR := int(lrOff[len(lrOff)-1])
	nLL := int(llOff[len(llOff)-1])
	t := &columnTensors{
		lr: make([][]float32, numFn),
		ll: make([][]float32, numFn),
	}
	for fi := 0; fi < numFn; fi++ {
		t.lr[fi] = make([]float32, nLR)
		t.ll[fi] = make([]float32, nLL)
	}
	workers := parallel.Resolve(parallelism)
	parallel.Shard(len(lrCand), workers, func(_, start, end int) {
		e := newEval()
		row := make([]float64, numFn)
		for r := start; r < end; r++ {
			base := int(lrOff[r])
			for ci, l := range lrCand[r] {
				if lcol[l] == "" && rcol[r] == "" {
					for fi := 0; fi < numFn; fi++ {
						t.lr[fi][base+ci] = 1
					}
					continue
				}
				e.lr(r, ci, nil, row)
				for fi := 0; fi < numFn; fi++ {
					t.lr[fi][base+ci] = float32(row[fi])
				}
			}
		}
	})
	parallel.Shard(len(llCand), workers, func(_, start, end int) {
		e := newEval()
		row := make([]float64, numFn)
		for l := start; l < end; l++ {
			base := int(llOff[l])
			for ci, l2 := range llCand[l] {
				if lcol[l] == "" && lcol[l2] == "" {
					for fi := 0; fi < numFn; fi++ {
						t.ll[fi][base+ci] = 1
					}
					continue
				}
				e.ll(l, ci, config.AllGroups, nil, row)
				for fi := 0; fi < numFn; fi++ {
					t.ll[fi][base+ci] = float32(row[fi])
				}
			}
		}
	})
	return t
}

// offsets builds flat offsets for ragged candidate lists; the final entry
// is the total pair count.
func offsets(cands [][]int32) []int32 {
	off := make([]int32, len(cands)+1)
	for i, c := range cands {
		off[i+1] = off[i] + int32(len(c))
	}
	return off
}

// concatColumns builds each record's blocking key with concatRow, the
// key a serving table derives from the same row.
func concatColumns(cols [][]string) []string {
	rows := columnRows(cols)
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = concatRow(row)
	}
	return out
}
