package baselines

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// StaticJoins evaluates every join function of the space as a stand-alone
// scorer: per right record it keeps the candidate with the smallest
// distance, scored as 1-distance. The result is indexed by function,
// feeding the Best-Static-Join-function (BSJ) comparison of Table 2.
func StaticJoins(left, right []string, space []config.JoinFunction, cands [][]int32) [][]metrics.ScoredJoin {
	scan := nearest(left, right, space)
	out := make([][]metrics.ScoredJoin, len(space))
	for r, cs := range cands {
		bestL, bestD := scan(r, cs)
		for fi := range space {
			if bestL[fi] >= 0 && bestD[fi] < 1 {
				out[fi] = append(out[fi], metrics.ScoredJoin{Right: r, Left: int(bestL[fi]), Score: 1 - bestD[fi]})
			}
		}
	}
	return out
}

// nearest returns a scan that finds, under every function of a space at
// once, a right record's closest blocked candidate: for right record r
// and its candidates, each function's closest one (the first on a tie;
// -1 when there is none) and its distance. The slices are reused by the
// next scan. Records are the rows of one learn arena, left's then
// right's, and each pair is one fused evaluation (see config.Evaluator).
func nearest(left, right []string, space []config.JoinFunction) func(r int, cands []int32) ([]int32, []float64) {
	learned := config.LearnProfiles(space, 0, left, right)
	v, rows := learned.Vocab(), learned.Rows()
	ev := config.NewEvaluator(space)
	sc := ev.NewScratch()
	var side config.Side
	row := make([]float64, len(space))
	bestL := make([]int32, len(space))
	bestD := make([]float64, len(space))
	return func(r int, cands []int32) ([]int32, []float64) {
		for fi := range space {
			bestL[fi], bestD[fi] = -1, 2.0
		}
		f := v.PrepareRow(&side, rows, len(left)+r, config.AllGroups, false)
		for _, l := range cands {
			ev.RowDistances(&f, rows, int(l), config.AllGroups, nil, sc, row)
			for fi, d := range row {
				if d < bestD[fi] {
					bestD[fi], bestL[fi] = d, l
				}
			}
		}
		side.Release()
		return bestL, bestD
	}
}

// BestStatic picks the function with the highest adjusted recall on this
// task and returns its joins plus the function index — the per-dataset
// building block of the BSJ baseline (which averages across datasets).
func BestStatic(static [][]metrics.ScoredJoin, truth metrics.Truth, targetPrecision float64) (int, []metrics.ScoredJoin) {
	bestFi, bestAR := -1, -1.0
	for fi, joins := range static {
		ar := metrics.AdjustedRecall(joins, truth, targetPrecision)
		if ar > bestAR {
			bestAR = ar
			bestFi = fi
		}
	}
	if bestFi < 0 {
		return -1, nil
	}
	return bestFi, static[bestFi]
}

// UpperBoundRecall computes UBR (§5.1.3): a ground-truth pair (l, r) is
// feasible when some configuration of the space ranks l as r's closest
// record; UBR is the fraction of ground-truth pairs that are feasible —
// the recall ceiling of any fuzzy-join program over this space.
func UpperBoundRecall(left, right []string, space []config.JoinFunction, cands [][]int32, truth metrics.Truth) float64 {
	if len(truth) == 0 {
		return 0
	}
	scan := nearest(left, right, space)
	feasible := 0
	for r, tl := range truth {
		if r >= len(cands) {
			continue
		}
		bestL, bestD := scan(r, cands[r])
		for fi := range space {
			if int(bestL[fi]) == tl && bestD[fi] < 1 {
				feasible++
				break
			}
		}
	}
	return float64(feasible) / float64(len(truth))
}
