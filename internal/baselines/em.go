package baselines

import (
	"math"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// ECM is the Fellegi-Sunter record-linkage model fit with the
// Expectation-Conditional-Maximization algorithm over binary comparison
// features, the approach of the Python Record Linkage Toolkit baseline:
// each similarity feature is binarized at its mean, EM estimates per-feature
// agreement probabilities m (among matches) and u (among non-matches) plus
// the match prevalence, and pairs are scored by posterior match probability.
type ECM struct {
	// Iterations bounds the EM loop (default 50).
	Iterations int
}

// Joins scores all blocked candidate pairs and keeps the best per right
// record.
func (e ECM) Joins(left, right []string, cands [][]int32) []metrics.ScoredJoin {
	f := NewFeaturizer(left, right)
	pairs := buildPairs(f, left, right, cands)
	if len(pairs) == 0 {
		return nil
	}
	iters := e.Iterations
	if iters <= 0 {
		iters = 50
	}
	// Binarize features at the per-feature mean.
	means := make([]float64, NumFeatures)
	for _, p := range pairs {
		for k, v := range p.feats {
			means[k] += v
		}
	}
	for k := range means {
		means[k] /= float64(len(pairs))
	}
	bin := make([][]bool, len(pairs))
	for i, p := range pairs {
		b := make([]bool, NumFeatures)
		for k, v := range p.feats {
			b[k] = v > means[k]
		}
		bin[i] = b
	}

	// EM initialization: optimistic m, pessimistic u, small prevalence.
	m := make([]float64, NumFeatures)
	u := make([]float64, NumFeatures)
	for k := range m {
		m[k] = 0.9
		u[k] = 0.1
	}
	prior := 0.1
	post := make([]float64, len(pairs))
	for it := 0; it < iters; it++ {
		// E-step: posterior match probability per pair (naive Bayes).
		for i := range pairs {
			num := math.Log(prior + 1e-12)
			den := math.Log(1 - prior + 1e-12)
			for k := 0; k < NumFeatures; k++ {
				if bin[i][k] {
					num += math.Log(m[k] + 1e-12)
					den += math.Log(u[k] + 1e-12)
				} else {
					num += math.Log(1 - m[k] + 1e-12)
					den += math.Log(1 - u[k] + 1e-12)
				}
			}
			post[i] = 1 / (1 + math.Exp(den-num))
		}
		// M-step: re-estimate prevalence and agreement probabilities.
		var sumPost float64
		mNew := make([]float64, NumFeatures)
		uNew := make([]float64, NumFeatures)
		for i := range pairs {
			sumPost += post[i]
			for k := 0; k < NumFeatures; k++ {
				if bin[i][k] {
					mNew[k] += post[i]
					uNew[k] += 1 - post[i]
				}
			}
		}
		n := float64(len(pairs))
		prior = clampProb(sumPost / n)
		for k := 0; k < NumFeatures; k++ {
			m[k] = clampProb(mNew[k] / math.Max(sumPost, 1e-9))
			u[k] = clampProb(uNew[k] / math.Max(n-sumPost, 1e-9))
		}
	}
	return bestPerRight(pairs, post)
}

// ZeroER is the unsupervised Gaussian-mixture matcher in the spirit of Wu
// et al. (SIGMOD 2020): each continuous similarity feature is modeled as a
// two-component (match / non-match) 1-D Gaussian mixture, fit jointly by
// EM with a naive-Bayes likelihood across features; pairs are scored by
// posterior match probability.
type ZeroER struct {
	Iterations int
}

// Joins scores all blocked candidate pairs and keeps the best per right
// record.
func (z ZeroER) Joins(left, right []string, cands [][]int32) []metrics.ScoredJoin {
	f := NewFeaturizer(left, right)
	pairs := buildPairs(f, left, right, cands)
	if len(pairs) == 0 {
		return nil
	}
	iters := z.Iterations
	if iters <= 0 {
		iters = 50
	}
	type gauss struct{ mu, sigma float64 }
	match := make([]gauss, NumFeatures)
	non := make([]gauss, NumFeatures)
	// Initialization: matches near 1, non-matches near the feature mean.
	for k := 0; k < NumFeatures; k++ {
		var mean, sd float64
		for _, p := range pairs {
			mean += p.feats[k]
		}
		mean /= float64(len(pairs))
		for _, p := range pairs {
			sd += float64((p.feats[k] - mean) * (p.feats[k] - mean))
		}
		sd = math.Sqrt(sd/float64(len(pairs))) + 1e-3
		match[k] = gauss{mu: math.Min(mean+sd, 1), sigma: sd}
		non[k] = gauss{mu: math.Max(mean-float64(sd/2), 0), sigma: sd}
	}
	prior := 0.1
	post := make([]float64, len(pairs))
	logpdf := func(g gauss, x float64) float64 {
		s := math.Max(g.sigma, 1e-3)
		d := (x - g.mu) / s
		return float64(-0.5*d*d) - math.Log(s)
	}
	for it := 0; it < iters; it++ {
		for i, p := range pairs {
			num := math.Log(prior + 1e-12)
			den := math.Log(1 - prior + 1e-12)
			for k := 0; k < NumFeatures; k++ {
				num += logpdf(match[k], p.feats[k])
				den += logpdf(non[k], p.feats[k])
			}
			post[i] = 1 / (1 + math.Exp(den-num))
		}
		var sumPost float64
		for _, q := range post {
			sumPost += q
		}
		n := float64(len(pairs))
		prior = clampProb(sumPost / n)
		for k := 0; k < NumFeatures; k++ {
			var muM, muN float64
			for i, p := range pairs {
				muM += float64(post[i] * p.feats[k])
				muN += float64((1 - post[i]) * p.feats[k])
			}
			muM /= math.Max(sumPost, 1e-9)
			muN /= math.Max(n-sumPost, 1e-9)
			var vM, vN float64
			for i, p := range pairs {
				vM += float64(post[i] * (p.feats[k] - muM) * (p.feats[k] - muM))
				vN += float64((1 - post[i]) * (p.feats[k] - muN) * (p.feats[k] - muN))
			}
			match[k] = gauss{mu: muM, sigma: math.Sqrt(vM/math.Max(sumPost, 1e-9)) + 1e-3}
			non[k] = gauss{mu: muN, sigma: math.Sqrt(vN/math.Max(n-sumPost, 1e-9)) + 1e-3}
		}
		// Identifiability: the match component must stay the high-similarity
		// one; swap if EM drifted.
		var mSum, nSum float64
		for k := 0; k < NumFeatures; k++ {
			mSum += match[k].mu
			nSum += non[k].mu
		}
		if mSum < nSum {
			match, non = non, match
			for i := range post {
				post[i] = 1 - post[i]
			}
			prior = clampProb(1 - prior)
		}
	}
	return bestPerRight(pairs, post)
}

func clampProb(p float64) float64 {
	if p < 1e-6 {
		return 1e-6
	}
	if p > 1-1e-6 {
		return 1 - 1e-6
	}
	return p
}
