package baselines

import (
	"math"
	"math/rand"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// SupervisedInput bundles what the supervised baselines need: the blocked
// candidate pairs, a feature oracle, and the ground truth that provides the
// 50% training labels (the paper's generous supervision budget).
type SupervisedInput struct {
	NumRight int
	Cands    [][]int32
	Features func(r int, l int32) []float64
	Truth    metrics.Truth
	Seed     int64
	// TrainFraction of right records whose pairs are labeled (default 0.5).
	TrainFraction float64
}

// NewSupervisedInput builds the standard similarity-feature input over
// concatenated single-column records.
func NewSupervisedInput(left, right []string, cands [][]int32, truth metrics.Truth, seed int64) *SupervisedInput {
	f := NewFeaturizer(left, right)
	return &SupervisedInput{
		NumRight: len(right),
		Cands:    cands,
		Features: func(r int, l int32) []float64 { return f.Features(left[l], right[r]) },
		Truth:    truth,
		Seed:     seed,
	}
}

// NewSupervisedInputMulti builds per-column similarity features, the way
// Magellan consumes multi-column tables.
func NewSupervisedInputMulti(leftCols, rightCols [][]string, cands [][]int32, truth metrics.Truth, seed int64) *SupervisedInput {
	fs := make([]*Featurizer, len(leftCols))
	for j := range leftCols {
		fs[j] = NewFeaturizer(leftCols[j], rightCols[j])
	}
	return &SupervisedInput{
		NumRight: len(rightCols[0]),
		Cands:    cands,
		Features: func(r int, l int32) []float64 {
			return multiFeatures(fs, leftCols, rightCols, int(l), r)
		},
		Truth: truth,
		Seed:  seed,
	}
}

// split partitions right records into train/test halves.
func (in *SupervisedInput) split() (train, test []int) {
	frac := in.TrainFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	rng := rand.New(rand.NewSource(in.Seed + 101))
	perm := rng.Perm(in.NumRight)
	cut := int(float64(in.NumRight) * frac)
	return perm[:cut], perm[cut:]
}

// TestTruth returns the ground truth restricted to the test half, the
// reference set for evaluating the supervised baselines.
func (in *SupervisedInput) TestTruth() metrics.Truth {
	_, test := in.split()
	t := metrics.Truth{}
	for _, r := range test {
		if l, ok := in.Truth[r]; ok {
			t[r] = l
		}
	}
	return t
}

// trainingSet featurizes the train half's candidate pairs with labels.
func (in *SupervisedInput) trainingSet(rights []int) (xs [][]float64, ys []bool, pr []int32, pl []int32) {
	for _, r := range rights {
		for _, l := range in.Cands[r] {
			xs = append(xs, in.Features(r, l))
			tl, ok := in.Truth[r]
			ys = append(ys, ok && tl == int(l))
			pr = append(pr, int32(r))
			pl = append(pl, l)
		}
	}
	return xs, ys, pr, pl
}

// scoreTest scores the test half with a fitted model.
func (in *SupervisedInput) scoreTest(test []int, predict func([]float64) float64) []metrics.ScoredJoin {
	var out []metrics.ScoredJoin
	for _, r := range test {
		bestL, bestS := int32(-1), -1.0
		for _, l := range in.Cands[r] {
			if s := predict(in.Features(r, l)); s > bestS {
				bestS = s
				bestL = l
			}
		}
		if bestL >= 0 {
			out = append(out, metrics.ScoredJoin{Right: r, Left: int(bestL), Score: bestS})
		}
	}
	return out
}

// Magellan trains the random forest on the 50% labeled half and scores the
// other half, per the paper's supervised protocol.
func Magellan(in *SupervisedInput) []metrics.ScoredJoin {
	train, test := in.split()
	xs, ys, _, _ := in.trainingSet(train)
	forest := &Forest{Seed: in.Seed}
	forest.Fit(xs, ys)
	return in.scoreTest(test, forest.Predict)
}

// DeepMatcher trains the MLP on embedding-derived pair representations
// ([e(l), e(r), |e(l)-e(r)|]), a miniature of DeepMatcher's learned record
// embeddings; like the original it needs far more labels than the
// benchmark provides, so it trails the feature-based learners.
type deepFeatures struct {
	left, right []string
}

func (d deepFeatures) features(r int, l int32) []float64 {
	vl, vr := embed.Embed(d.left[l]), embed.Embed(d.right[r])
	el, er := vl.Unit(), vr.Unit()
	out := make([]float64, 0, 3*embed.Dim)
	for _, v := range el {
		out = append(out, v)
	}
	for _, v := range er {
		out = append(out, v)
	}
	for i := range el {
		out = append(out, math.Abs(el[i]-er[i]))
	}
	return out
}

// DeepMatcherJoins runs the DeepMatcher-like baseline on concatenated
// records.
func DeepMatcherJoins(left, right []string, cands [][]int32, truth metrics.Truth, seed int64) ([]metrics.ScoredJoin, metrics.Truth) {
	df := deepFeatures{left: left, right: right}
	in := &SupervisedInput{
		NumRight: len(right),
		Cands:    cands,
		Features: df.features,
		Truth:    truth,
		Seed:     seed,
	}
	train, test := in.split()
	xs, ys, _, _ := in.trainingSet(train)
	mlp := &MLP{Seed: seed}
	mlp.Fit(xs, ys)
	return in.scoreTest(test, mlp.Predict), in.TestTruth()
}

// ActiveLearning runs uncertainty-sampling AL over the training pool:
// starting from a small random seed set, it repeatedly fits the forest and
// queries the labels of the most uncertain pairs until half the pool is
// labeled, then scores the test half.
func ActiveLearning(in *SupervisedInput) []metrics.ScoredJoin {
	train, test := in.split()
	xs, ys, _, _ := in.trainingSet(train)
	if len(xs) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(in.Seed + 202))
	labeled := make([]bool, len(xs))
	budget := len(xs) / 2
	seedN := 20
	if seedN > budget {
		seedN = budget
	}
	for _, i := range rng.Perm(len(xs))[:seedN] {
		labeled[i] = true
	}
	count := seedN
	forest := &Forest{Seed: in.Seed, Trees: 15}
	batch := len(xs) / 10
	if batch < 5 {
		batch = 5
	}
	for count < budget {
		var lx [][]float64
		var ly []bool
		for i := range xs {
			if labeled[i] {
				lx = append(lx, xs[i])
				ly = append(ly, ys[i])
			}
		}
		forest = &Forest{Seed: in.Seed + int64(count), Trees: 15}
		forest.Fit(lx, ly)
		// Query the most uncertain unlabeled pairs.
		type cand struct {
			i   int
			unc float64
		}
		var pool []cand
		for i := range xs {
			if !labeled[i] {
				p := forest.Predict(xs[i])
				pool = append(pool, cand{i, math.Abs(p - 0.5)})
			}
		}
		if len(pool) == 0 {
			break
		}
		// Partial selection of the lowest-|p-0.5| candidates.
		for b := 0; b < batch && count < budget && b < len(pool); b++ {
			minI := b
			for x := b + 1; x < len(pool); x++ {
				if pool[x].unc < pool[minI].unc {
					minI = x
				}
			}
			pool[b], pool[minI] = pool[minI], pool[b]
			labeled[pool[b].i] = true
			count++
		}
	}
	var lx [][]float64
	var ly []bool
	for i := range xs {
		if labeled[i] {
			lx = append(lx, xs[i])
			ly = append(ly, ys[i])
		}
	}
	final := &Forest{Seed: in.Seed + 999}
	final.Fit(lx, ly)
	return in.scoreTest(test, final.Predict)
}
