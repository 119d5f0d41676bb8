package baselines

import (
	"fmt"
	"math"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// smallTask generates a small benchmark task shared by the method tests.
func smallTask(t *testing.T) (left, right []string, truth metrics.Truth) {
	t.Helper()
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 3, Scale: 0.25})
	return task.LeftKey(), task.RightKey(), task.Truth
}

func TestFeaturizerRange(t *testing.T) {
	f := NewFeaturizer([]string{"alpha beta", "gamma"}, []string{"alpha beta!"})
	ft := f.Features("alpha beta", "alpha beta gamma")
	if len(ft) != NumFeatures {
		t.Fatalf("got %d features, want %d", len(ft), NumFeatures)
	}
	for i, v := range ft {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("feature %s = %f out of range", FeatureNames()[i], v)
		}
	}
	// Identical strings maximize every similarity.
	self := f.Features("alpha beta", "alpha beta")
	for i, v := range self {
		if v < 1-1e-9 {
			t.Errorf("self-feature %s = %f, want 1", FeatureNames()[i], v)
		}
	}
}

func TestFeatureNamesMatchCount(t *testing.T) {
	if len(FeatureNames()) != NumFeatures {
		t.Fatal("FeatureNames length mismatch")
	}
}

func TestExcelScoresTrueMatchesHigher(t *testing.T) {
	left, right, truth := smallTask(t)
	e := NewExcel(left, right)
	var matchSum, nonSum float64
	var matchN, nonN int
	for r, l := range truth {
		matchSum += e.Score(left[l], right[r])
		matchN++
		wrong := (l + 7) % len(left)
		if wrong != l {
			nonSum += e.Score(left[wrong], right[r])
			nonN++
		}
	}
	if matchN == 0 || nonN == 0 {
		t.Fatal("degenerate task")
	}
	if matchSum/float64(matchN) <= nonSum/float64(nonN)+0.1 {
		t.Errorf("Excel does not separate matches (%f) from non-matches (%f)",
			matchSum/float64(matchN), nonSum/float64(nonN))
	}
}

func TestFuzzyWuzzyRatios(t *testing.T) {
	fw := FuzzyWuzzy{}
	if s := fw.Score("hello world", "hello world"); s != 1 {
		t.Errorf("identical Score = %f", s)
	}
	// token_sort handles reorder perfectly.
	if s := fw.tokenSortRatio("world hello", "hello world"); s != 1 {
		t.Errorf("tokenSortRatio on reorder = %f, want 1", s)
	}
	// token_set forgives extra tokens.
	if s := fw.tokenSetRatio("hello world", "hello world extra tokens"); s != 1 {
		t.Errorf("tokenSetRatio with extras = %f, want 1", s)
	}
	// partial ratio finds substrings.
	if s := fw.partialRatio("needle", "the needle in the haystack"); s != 1 {
		t.Errorf("partialRatio substring = %f, want 1", s)
	}
	if s := fw.Score("abc", "xyz"); s > 0.5 {
		t.Errorf("unrelated Score = %f", s)
	}
}

func TestPPJoinAgainstBruteForce(t *testing.T) {
	left := []string{
		"alpha beta gamma", "alpha beta", "delta epsilon zeta",
		"beta gamma delta", "unrelated words here",
	}
	right := []string{"alpha beta gamma delta", "delta epsilon", "nothing shared"}
	pp := PPJoin{MinSim: 0.4}
	joins := pp.Joins(left, right)
	got := map[int]metrics.ScoredJoin{}
	for _, j := range joins {
		got[j.Right] = j
	}
	// Brute force: r0 ties between l0 and l3 at 3/4 — the deterministic
	// tie-break picks l0; r1 best = l2 (2/3); r2 has nothing >= 0.4.
	if j, ok := got[0]; !ok || j.Left != 0 || math.Abs(j.Score-0.75) > 1e-9 {
		t.Errorf("r0 join = %+v", got[0])
	}
	if j, ok := got[1]; !ok || j.Left != 2 || math.Abs(j.Score-2.0/3) > 1e-9 {
		t.Errorf("r1 join = %+v", got[1])
	}
	if _, ok := got[2]; ok {
		t.Errorf("r2 should not join, got %+v", got[2])
	}
}

func TestPPJoinThresholdMonotone(t *testing.T) {
	left, right, _ := smallTask(t)
	lo := PPJoin{MinSim: 0.2}.Joins(left, right)
	hi := PPJoin{MinSim: 0.7}.Joins(left, right)
	if len(hi) > len(lo) {
		t.Errorf("higher threshold produced more joins (%d > %d)", len(hi), len(lo))
	}
}

func TestECMAndZeroERProduceUsefulScores(t *testing.T) {
	left, right, truth := smallTask(t)
	cands := Candidates(left, right, 1.0)
	for _, m := range []struct {
		name  string
		joins []metrics.ScoredJoin
	}{
		{"ECM", ECM{Iterations: 20}.Joins(left, right, cands)},
		{"ZeroER", ZeroER{Iterations: 20}.Joins(left, right, cands)},
	} {
		if len(m.joins) == 0 {
			t.Fatalf("%s produced no joins", m.name)
		}
		for _, j := range m.joins {
			if j.Score < 0 || j.Score > 1 || math.IsNaN(j.Score) {
				t.Fatalf("%s score %f out of range", m.name, j.Score)
			}
		}
		auc := metrics.PRAUC(m.joins, truth)
		if auc < 0.1 {
			t.Errorf("%s PR-AUC = %f, suspiciously bad", m.name, auc)
		}
	}
}

func TestForestLearnsSeparableData(t *testing.T) {
	var xs [][]float64
	var ys []bool
	mk := func(v float64) []float64 { return []float64{v, 1 - v, 0.5} }
	for i := 0; i < 200; i++ {
		v := float64(i%2)*0.8 + 0.1 // 0.1 or 0.9
		xs = append(xs, mk(v))
		ys = append(ys, i%2 == 1)
	}
	f := &Forest{Seed: 1}
	f.Fit(xs, ys)
	// Probes use the same arithmetic as the training rows so threshold
	// comparisons are float-consistent.
	if p := f.Predict(mk(float64(1)*0.8 + 0.1)); p < 0.8 {
		t.Errorf("positive prediction %f", p)
	}
	if p := f.Predict(mk(float64(0)*0.8 + 0.1)); p > 0.2 {
		t.Errorf("negative prediction %f", p)
	}
}

func TestForestEmptyTrainingSet(t *testing.T) {
	f := &Forest{}
	f.Fit(nil, nil)
	if p := f.Predict([]float64{1}); p != 0 {
		t.Errorf("unfit forest predicted %f", p)
	}
}

func TestMLPLearnsSeparableData(t *testing.T) {
	var xs [][]float64
	var ys []bool
	for i := 0; i < 300; i++ {
		v := float64(i%2)*0.8 + 0.1
		xs = append(xs, []float64{v, 1 - v})
		ys = append(ys, i%2 == 1)
	}
	m := &MLP{Seed: 2, Epochs: 50}
	m.Fit(xs, ys)
	if p := m.Predict([]float64{0.9, 0.1}); p < 0.7 {
		t.Errorf("positive prediction %f", p)
	}
	if p := m.Predict([]float64{0.1, 0.9}); p > 0.3 {
		t.Errorf("negative prediction %f", p)
	}
}

func TestMagellanBeatsRandomOnTask(t *testing.T) {
	left, right, truth := smallTask(t)
	cands := Candidates(left, right, 1.0)
	in := NewSupervisedInput(left, right, cands, truth, 7)
	joins := Magellan(in)
	testTruth := in.TestTruth()
	if len(testTruth) == 0 {
		t.Skip("test split has no ground truth")
	}
	auc := metrics.PRAUC(joins, testTruth)
	if auc < 0.2 {
		t.Errorf("Magellan PR-AUC = %f on easy half-labeled task", auc)
	}
	// Only test-half rights may appear in the output.
	train := map[int]bool{}
	trainRights, _ := in.split()
	for _, r := range trainRights {
		train[r] = true
	}
	for _, j := range joins {
		if train[j.Right] {
			t.Fatal("Magellan scored a training record")
		}
	}
}

func TestActiveLearningRuns(t *testing.T) {
	left, right, truth := smallTask(t)
	cands := Candidates(left, right, 1.0)
	in := NewSupervisedInput(left, right, cands, truth, 11)
	joins := ActiveLearning(in)
	if len(joins) == 0 {
		t.Fatal("AL produced no joins")
	}
	if auc := metrics.PRAUC(joins, in.TestTruth()); auc < 0.15 {
		t.Errorf("AL PR-AUC = %f", auc)
	}
}

func TestDeepMatcherRuns(t *testing.T) {
	left, right, truth := smallTask(t)
	cands := Candidates(left, right, 1.0)
	joins, testTruth := DeepMatcherJoins(left, right, cands, truth, 13)
	if len(joins) == 0 {
		t.Fatal("DM produced no joins")
	}
	for _, j := range joins {
		if j.Score < 0 || j.Score > 1 {
			t.Fatalf("DM score %f", j.Score)
		}
	}
	_ = testTruth
}

func TestStaticJoinsAndUBR(t *testing.T) {
	left, right, truth := smallTask(t)
	cands := Candidates(left, right, 1.0)
	space := config.ReducedSpace()
	static := StaticJoins(left, right, space, cands)
	if len(static) != len(space) {
		t.Fatalf("static results %d != space %d", len(static), len(space))
	}
	fi, joins := BestStatic(static, truth, 0.9)
	if fi < 0 || len(joins) == 0 {
		t.Fatal("BestStatic found nothing")
	}
	ubr := UpperBoundRecall(left, right, space, cands, truth)
	if ubr <= 0 || ubr > 1 {
		t.Fatalf("UBR = %f", ubr)
	}
	// UBR must dominate any static function's correct-join fraction.
	best := metrics.AdjustedRecallFraction(joins, truth, 0.9)
	if best > ubr+1e-9 {
		t.Errorf("static AR fraction %f exceeds UBR %f", best, ubr)
	}
}

// TestStaticJoinsMatchStringPath: StaticJoins, which scores learn rows
// with each right record prepared as the query side r, keeps exactly the
// joins of the same scan over string Profiles (Evaluator.Distances with
// the left record as l), under the full space, whose containment
// distances are not symmetric.
func TestStaticJoinsMatchStringPath(t *testing.T) {
	left, right, _ := smallTask(t)
	cands := Candidates(left, right, 1.0)
	space := config.Space()
	corpus := config.NewCorpus(space, left, right)
	profL, profR := corpus.Profiles(left, 1), corpus.Profiles(right, 1)
	ev := config.NewEvaluator(space)
	sc := ev.NewScratch()
	row := make([]float64, len(space))
	want := make([][]metrics.ScoredJoin, len(space))
	bestL, bestD := make([]int, len(space)), make([]float64, len(space))
	for r, cs := range cands {
		for fi := range space {
			bestL[fi], bestD[fi] = -1, 2.0
		}
		for _, l := range cs {
			ev.Distances(profL[l], profR[r], sc, row)
			for fi, d := range row {
				if d < bestD[fi] {
					bestL[fi], bestD[fi] = int(l), d
				}
			}
		}
		for fi := range space {
			if bestL[fi] >= 0 && bestD[fi] < 1 {
				want[fi] = append(want[fi], metrics.ScoredJoin{Right: r, Left: bestL[fi], Score: 1 - bestD[fi]})
			}
		}
	}
	got := StaticJoins(left, right, space, cands)
	for fi, fn := range space {
		if len(got[fi]) != len(want[fi]) {
			t.Fatalf("%s: %d joins, string path %d", fn.Name(), len(got[fi]), len(want[fi]))
		}
		for k := range want[fi] {
			g, w := got[fi][k], want[fi][k]
			if g.Right != w.Right || g.Left != w.Left || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
				t.Fatalf("%s: join %d is %+v, string path %+v", fn.Name(), k, g, w)
			}
		}
	}
}

func TestConcatColumns(t *testing.T) {
	cols := [][]string{{"a", ""}, {"b", "c"}}
	got := ConcatColumns(cols)
	if got[0] != "a b" || got[1] != "c" {
		t.Errorf("ConcatColumns = %v", got)
	}
	if ConcatColumns(nil) != nil {
		t.Error("ConcatColumns(nil) should be nil")
	}
}

func TestCandidatesShape(t *testing.T) {
	left := make([]string, 30)
	for i := range left {
		left[i] = fmt.Sprintf("record %d alpha", i)
	}
	cands := Candidates(left, []string{"record 3 alpha", "zzz"}, 1.0)
	if len(cands) != 2 {
		t.Fatalf("cands len %d", len(cands))
	}
	if len(cands[0]) == 0 {
		t.Error("no candidates for matching record")
	}
}
