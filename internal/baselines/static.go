package baselines

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// StaticJoins evaluates every join function of the space as a stand-alone
// scorer: per right record it keeps the candidate with the smallest
// distance (the first on a tie), scored as 1-distance. The result is
// indexed by function, feeding the Best-Static-Join-function (BSJ)
// comparison of Table 2 and UpperBoundRecall. Records are the rows of one
// learn arena, left's then right's, and each pair is one fused evaluation
// (see config.Evaluator) with the right record prepared once as the query
// side.
func StaticJoins(left, right []string, space []config.JoinFunction, cands [][]int32) [][]metrics.ScoredJoin {
	learned := config.LearnProfiles(space, 0, left, right)
	v, rows := learned.Vocab(), learned.Rows()
	ev := config.NewEvaluator(space)
	sc := ev.NewScratch()
	var side config.Side
	row := make([]float64, len(space))
	bestL := make([]int32, len(space))
	bestD := make([]float64, len(space))
	out := make([][]metrics.ScoredJoin, len(space))
	for r, cs := range cands {
		for fi := range space {
			bestL[fi], bestD[fi] = -1, 2.0
		}
		f := v.PrepareRow(&side, rows, len(left)+r, config.AllGroups, false)
		for _, l := range cs {
			ev.RowDistances(&f, rows, int(l), config.AllGroups, nil, sc, row)
			for fi, d := range row {
				if d < bestD[fi] {
					bestD[fi], bestL[fi] = d, l
				}
			}
		}
		side.Release()
		for fi := range space {
			if bestL[fi] >= 0 && bestD[fi] < 1 {
				out[fi] = append(out[fi], metrics.ScoredJoin{Right: r, Left: int(bestL[fi]), Score: 1 - bestD[fi]})
			}
		}
	}
	return out
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

// UpperBoundRecall computes UBR (§5.1.3) from StaticJoins' result: a
// ground-truth pair (l, r) is feasible when some configuration of the
// space ranks l as r's closest record (at a distance below 1, as a static
// join keeps it); UBR is the fraction of ground-truth pairs that are
// feasible — the recall ceiling of any fuzzy-join program over this
// space.
func UpperBoundRecall(static [][]metrics.ScoredJoin, truth metrics.Truth) float64 {
	if len(truth) == 0 {
		return 0
	}
	feasible := map[int]bool{}
	for _, joins := range static {
		for _, j := range joins {
			if tl, ok := truth[j.Right]; ok && tl == j.Left {
				feasible[j.Right] = true
			}
		}
	}
	return float64(len(feasible)) / float64(len(truth))
}
