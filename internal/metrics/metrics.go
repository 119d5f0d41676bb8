// Package metrics implements the evaluation measures of the Auto-FuzzyJoin
// paper (§5.1.2): precision and recall (Eq. 3–4, recall in absolute counts),
// adjusted recall (AR) for threshold-based baselines, PR-AUC over the
// precision-recall sweep, and the Pearson correlation used for the PEPCC
// column of Table 2.
package metrics

import (
	"math"
	"sort"
)

// Truth is the ground-truth many-to-one mapping right→left. Right records
// with no counterpart are absent.
type Truth map[int]int

// Eval scores a predicted right→left mapping against the truth.
// Precision is the fraction of predicted joins that are correct; Recall is
// the absolute number of correct joins (the paper's Eq. 4); RecallFraction
// normalizes by the number of ground-truth pairs.
type Eval struct {
	Predicted      int
	Correct        int
	Precision      float64
	Recall         float64
	RecallFraction float64
}

// Evaluate compares predictions to truth.
func Evaluate(pred map[int]int, truth Truth) Eval {
	e := Eval{Predicted: len(pred)}
	for r, l := range pred {
		if tl, ok := truth[r]; ok && tl == l {
			e.Correct++
		}
	}
	if e.Predicted > 0 {
		e.Precision = float64(e.Correct) / float64(e.Predicted)
	}
	e.Recall = float64(e.Correct)
	if len(truth) > 0 {
		e.RecallFraction = float64(e.Correct) / float64(len(truth))
	}
	return e
}

// ScoredJoin is a baseline's candidate join with a confidence score
// (higher = more likely a match). Baselines emit at most one candidate per
// right record, matching the many-to-one setting.
type ScoredJoin struct {
	Right int
	Left  int
	Score float64
}

// sweepPoint is one (precision, recall) operating point of a threshold sweep.
type sweepPoint struct {
	precision float64
	correct   int
}

// sweep sorts joins by descending score and emits the precision/correct
// curve at every distinct score cut.
func sweep(joins []ScoredJoin, truth Truth) []sweepPoint {
	sorted := make([]ScoredJoin, len(joins))
	copy(sorted, joins)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	var pts []sweepPoint
	correct, predicted := 0, 0
	for i, j := range sorted {
		predicted++
		if tl, ok := truth[j.Right]; ok && tl == j.Left {
			correct++
		}
		// Only cut between distinct scores: ties must enter together.
		if i+1 < len(sorted) && sorted[i+1].Score == j.Score {
			continue
		}
		pts = append(pts, sweepPoint{
			precision: float64(correct) / float64(predicted),
			correct:   correct,
		})
	}
	return pts
}

// AdjustedRecall implements the paper's AR protocol: sweep the baseline's
// score threshold and report the recall (correct-join count) at the
// operating point whose precision is closest to but not greater than the
// target (AutoFJ's achieved precision). When every point exceeds the
// target, the point with the lowest precision is used, which still favors
// the baseline.
func AdjustedRecall(joins []ScoredJoin, truth Truth, targetPrecision float64) float64 {
	pts := sweep(joins, truth)
	if len(pts) == 0 {
		return 0
	}
	best := -1
	for i, p := range pts {
		if p.precision > targetPrecision {
			continue
		}
		if best < 0 || p.precision > pts[best].precision ||
			(p.precision == pts[best].precision && p.correct > pts[best].correct) {
			best = i
		}
	}
	if best < 0 {
		// All points more precise than the target: take the least precise.
		best = 0
		for i, p := range pts {
			if p.precision < pts[best].precision ||
				(p.precision == pts[best].precision && p.correct > pts[best].correct) {
				best = i
			}
		}
	}
	return float64(pts[best].correct)
}

// AdjustedRecallFraction is AdjustedRecall normalized by |truth|.
func AdjustedRecallFraction(joins []ScoredJoin, truth Truth, targetPrecision float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	return AdjustedRecall(joins, truth, targetPrecision) / float64(len(truth))
}

// PRAUC computes the area under the precision-recall curve of the score
// sweep, with recall normalized to [0,1] by |truth| and step interpolation
// (the average-precision convention). Returns 0 when truth is empty.
func PRAUC(joins []ScoredJoin, truth Truth) float64 {
	if len(truth) == 0 {
		return 0
	}
	pts := sweep(joins, truth)
	auc := 0.0
	prevCorrect := 0
	for _, p := range pts {
		if p.correct > prevCorrect {
			auc += float64(float64(p.correct-prevCorrect) / float64(len(truth)) * p.precision)
			prevCorrect = p.correct
		}
	}
	// Guard against float accumulation nudging a perfect score past 1.
	if auc > 1 {
		auc = 1
	}
	return auc
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series; NaN when undefined (fewer than two points or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += float64(dx * dy)
		vx += float64(dx * dx)
		vy += float64(dy * dy)
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// UpperTailedTTestP returns the p-value of a paired upper-tailed t-test of
// H1: mean(a) > mean(b), the significance test of Table 2's second-to-last
// row. The t statistic is converted to a p-value with a normal
// approximation of the t distribution, adequate for the n=50 datasets of
// the benchmark.
func UpperTailedTTestP(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	n := float64(len(a))
	diffs := make([]float64, len(a))
	var mean float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		mean += diffs[i]
	}
	mean /= n
	var varSum float64
	for _, d := range diffs {
		varSum += float64((d - mean) * (d - mean))
	}
	sd := math.Sqrt(varSum / (n - 1))
	if sd == 0 {
		if mean > 0 {
			return 0
		}
		return 1
	}
	t := mean / (sd / math.Sqrt(n))
	// One-sided p via the standard normal survival function.
	return 0.5 * math.Erfc(t/math.Sqrt2)
}
