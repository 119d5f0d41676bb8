package baselines

import (
	"math"
	"math/rand"
	"sort"
)

// treeNode is one node of a CART classification tree on float features.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	prob      float64 // leaf: probability of the positive class
	leaf      bool
}

// Forest is a bagging random forest of CART trees with Gini splits and
// √d feature subsampling, the from-scratch stand-in for Magellan's
// scikit-learn random forest.
type Forest struct {
	Trees    int // default 20
	MaxDepth int // default 8
	MinLeaf  int // default 2
	Seed     int64
	trees    []*treeNode
}

// Fit trains the forest on feature vectors xs with binary labels ys.
func (f *Forest) Fit(xs [][]float64, ys []bool) {
	if f.Trees <= 0 {
		f.Trees = 20
	}
	if f.MaxDepth <= 0 {
		f.MaxDepth = 8
	}
	if f.MinLeaf <= 0 {
		f.MinLeaf = 2
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	f.trees = make([]*treeNode, 0, f.Trees)
	if len(xs) == 0 {
		return
	}
	d := len(xs[0])
	mtry := int(math.Sqrt(float64(d)))
	if mtry < 1 {
		mtry = 1
	}
	for t := 0; t < f.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = rng.Intn(len(xs))
		}
		f.trees = append(f.trees, growTree(xs, ys, idx, 0, f.MaxDepth, f.MinLeaf, mtry, rng))
	}
}

// Predict returns the forest's positive-class probability.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var sum float64
	for _, t := range f.trees {
		sum += predictTree(t, x)
	}
	return sum / float64(len(f.trees))
}

func predictTree(n *treeNode, x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

func growTree(xs [][]float64, ys []bool, idx []int, depth, maxDepth, minLeaf, mtry int, rng *rand.Rand) *treeNode {
	pos := 0
	for _, i := range idx {
		if ys[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if depth >= maxDepth || pos == 0 || pos == len(idx) || len(idx) < 2*minLeaf {
		return &treeNode{leaf: true, prob: prob}
	}
	d := len(xs[0])
	feats := rng.Perm(d)[:mtry]
	bestFeat, bestThresh, bestGini := -1, 0.0, math.Inf(1)
	vals := make([]float64, len(idx))
	for _, ft := range feats {
		for i, id := range idx {
			vals[i] = xs[id][ft]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Candidate thresholds: a handful of quantile midpoints.
		for q := 1; q < 8; q++ {
			cut := sorted[q*len(sorted)/8]
			var nL, pL, nR, pR float64
			for _, id := range idx {
				if xs[id][ft] <= cut {
					nL++
					if ys[id] {
						pL++
					}
				} else {
					nR++
					if ys[id] {
						pR++
					}
				}
			}
			if nL < float64(minLeaf) || nR < float64(minLeaf) {
				continue
			}
			gini := float64(nL*giniImpurity(pL/nL)) + float64(nR*giniImpurity(pR/nR))
			if gini < bestGini {
				bestGini = gini
				bestFeat = ft
				bestThresh = cut
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	var li, ri []int
	for _, id := range idx {
		if xs[id][bestFeat] <= bestThresh {
			li = append(li, id)
		} else {
			ri = append(ri, id)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      growTree(xs, ys, li, depth+1, maxDepth, minLeaf, mtry, rng),
		right:     growTree(xs, ys, ri, depth+1, maxDepth, minLeaf, mtry, rng),
	}
}

func giniImpurity(p float64) float64 {
	return 2 * p * (1 - p)
}

// MLP is a one-hidden-layer perceptron trained by SGD with a logistic
// output, the from-scratch stand-in for DeepMatcher: like the paper's deep
// baseline, it is data-hungry and underperforms at benchmark label sizes.
type MLP struct {
	Hidden int // default 16
	Epochs int // default 30
	LR     float64
	Seed   int64
	w1     [][]float64
	b1     []float64
	w2     []float64
	b2     float64
}

// Fit trains the network on feature vectors xs with binary labels ys.
func (m *MLP) Fit(xs [][]float64, ys []bool) {
	if m.Hidden <= 0 {
		m.Hidden = 16
	}
	if m.Epochs <= 0 {
		m.Epochs = 30
	}
	if m.LR <= 0 {
		m.LR = 0.05
	}
	if len(xs) == 0 {
		return
	}
	d := len(xs[0])
	rng := rand.New(rand.NewSource(m.Seed + 3))
	m.w1 = make([][]float64, m.Hidden)
	m.b1 = make([]float64, m.Hidden)
	for h := range m.w1 {
		m.w1[h] = make([]float64, d)
		for k := range m.w1[h] {
			m.w1[h][k] = rng.NormFloat64() * 0.3
		}
	}
	m.w2 = make([]float64, m.Hidden)
	for h := range m.w2 {
		m.w2[h] = rng.NormFloat64() * 0.3
	}
	order := rng.Perm(len(xs))
	hid := make([]float64, m.Hidden)
	for e := 0; e < m.Epochs; e++ {
		for _, i := range order {
			x := xs[i]
			y := 0.0
			if ys[i] {
				y = 1
			}
			// Forward.
			z := m.b2
			for h := 0; h < m.Hidden; h++ {
				a := m.b1[h]
				for k := 0; k < d; k++ {
					a += float64(m.w1[h][k] * x[k])
				}
				hid[h] = math.Tanh(a)
				z += float64(m.w2[h] * hid[h])
			}
			p := 1 / (1 + math.Exp(-z))
			// Backward (cross-entropy gradient).
			g := p - y
			for h := 0; h < m.Hidden; h++ {
				gh := g * m.w2[h] * (1 - float64(hid[h]*hid[h]))
				m.w2[h] -= float64(m.LR * g * hid[h])
				for k := 0; k < d; k++ {
					m.w1[h][k] -= float64(m.LR * gh * x[k])
				}
				m.b1[h] -= float64(m.LR * gh)
			}
			m.b2 -= float64(m.LR * g)
		}
	}
}

// Predict returns the network's match probability.
func (m *MLP) Predict(x []float64) float64 {
	if m.w1 == nil {
		return 0
	}
	z := m.b2
	for h := 0; h < m.Hidden; h++ {
		a := m.b1[h]
		for k := range x {
			a += float64(m.w1[h][k] * x[k])
		}
		z += float64(m.w2[h] * math.Tanh(a))
	}
	return 1 / (1 + math.Exp(-z))
}
