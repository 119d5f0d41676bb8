package distance

import (
	"math"
	"sort"
)

// Sparse is a weighted token set in sorted-key sparse form, the record
// representation used by the set-based distances. Build one per record per
// (tokenization, weighting) combination and reuse it across comparisons.
type Sparse struct {
	Tokens []string  // distinct tokens, sorted ascending
	W      []float64 // weight per token, parallel to Tokens; > 0
	Sum    float64   // sum of W
	Norm   float64   // sqrt(sum of W^2)
}

// NewSparse builds a Sparse from a token->weight map. Tokens with
// non-positive weight are dropped.
func NewSparse(vec map[string]float64) Sparse {
	s := Sparse{Tokens: make([]string, 0, len(vec))}
	for t, w := range vec {
		if w > 0 {
			s.Tokens = append(s.Tokens, t)
		}
	}
	sort.Strings(s.Tokens)
	s.W = make([]float64, len(s.Tokens))
	for i, t := range s.Tokens {
		w := vec[t]
		s.W[i] = w
		s.Sum += w
		s.Norm += float64(w * w)
	}
	s.Norm = math.Sqrt(s.Norm)
	return s
}

// Empty reports whether the set has no tokens.
func (s Sparse) Empty() bool { return len(s.Tokens) == 0 }

// overlap merges the two sorted token lists and returns the weighted
// min-overlap Σ min(a_i, b_i), the dot product Σ a_i*b_i, and whether every
// token of a also occurs in b (set containment a ⊆ b).
func overlap(a, b Sparse) (sumMin, dot float64, aInB bool) {
	i, j := 0, 0
	aInB = true
	for i < len(a.Tokens) && j < len(b.Tokens) {
		switch {
		case a.Tokens[i] == b.Tokens[j]:
			wa, wb := a.W[i], b.W[j]
			if wa < wb {
				sumMin += wa
			} else {
				sumMin += wb
			}
			dot += float64(wa * wb)
			i++
			j++
		case a.Tokens[i] < b.Tokens[j]:
			aInB = false
			i++
		default:
			j++
		}
	}
	if i < len(a.Tokens) {
		aInB = false
	}
	return sumMin, dot, aInB
}

// bothEmptyOrOne returns (0, true) when both sets are empty (identical) and
// (1, true) when exactly one is empty (maximally different).
func bothEmptyOrOne(a, b Sparse) (float64, bool) {
	if a.Empty() && b.Empty() {
		return 0, true
	}
	if a.Empty() || b.Empty() {
		return 1, true
	}
	return 0, false
}

// Jaccard returns the weighted Jaccard distance 1 - Σmin / Σmax.
func Jaccard(a, b Sparse) float64 {
	if d, done := bothEmptyOrOne(a, b); done {
		return d
	}
	sumMin, _, _ := overlap(a, b)
	union := a.Sum + b.Sum - sumMin
	if union <= 0 {
		return 0
	}
	return clamp01(1 - sumMin/union)
}

// Cosine returns the cosine distance 1 - a.b / (|a||b|).
func Cosine(a, b Sparse) float64 {
	if d, done := bothEmptyOrOne(a, b); done {
		return d
	}
	_, dot, _ := overlap(a, b)
	den := a.Norm * b.Norm
	if den <= 0 {
		return 1
	}
	return clamp01(1 - dot/den)
}

// Dice returns the Dice distance 1 - 2Σmin / (Σa + Σb).
func Dice(a, b Sparse) float64 {
	if d, done := bothEmptyOrOne(a, b); done {
		return d
	}
	sumMin, _, _ := overlap(a, b)
	den := a.Sum + b.Sum
	if den <= 0 {
		return 0
	}
	return clamp01(1 - 2*sumMin/den)
}

// MaxInclusion returns the max-inclusion distance
// 1 - Σmin / min(Σa, Σb): the overlap relative to the smaller set, so a
// record fully contained in the other has distance 0.
func MaxInclusion(a, b Sparse) float64 {
	if d, done := bothEmptyOrOne(a, b); done {
		return d
	}
	sumMin, _, _ := overlap(a, b)
	den := a.Sum
	if b.Sum < den {
		den = b.Sum
	}
	if den <= 0 {
		return 0
	}
	return clamp01(1 - sumMin/den)
}

// Inclusion returns the directional inclusion distance of r in l:
// 1 - Σmin / Σr, i.e. how much of the right record is missing from the
// left. A right record fully contained in the left has distance 0.
func Inclusion(l, r Sparse) float64 {
	if d, done := bothEmptyOrOne(l, r); done {
		return d
	}
	sumMin, _, _ := overlap(l, r)
	if r.Sum <= 0 {
		return 0
	}
	return clamp01(1 - sumMin/r.Sum)
}

// ContainJaccard is the hybrid containment distance of Table 1: when the
// right record's tokens are a subset of the left's, it equals Jaccard;
// otherwise it is 1.
func ContainJaccard(l, r Sparse) float64 {
	if !containedIn(r, l) {
		return 1
	}
	return Jaccard(l, r)
}

// ContainCosine is the containment-gated Cosine distance (see ContainJaccard).
func ContainCosine(l, r Sparse) float64 {
	if !containedIn(r, l) {
		return 1
	}
	return Cosine(l, r)
}

// ContainDice is the containment-gated Dice distance (see ContainJaccard).
func ContainDice(l, r Sparse) float64 {
	if !containedIn(r, l) {
		return 1
	}
	return Dice(l, r)
}

// containedIn reports whether the token set of a is a subset of b's.
// Two empty sets are considered contained; an empty a is contained in any b.
func containedIn(a, b Sparse) bool {
	if a.Empty() {
		return true
	}
	if b.Empty() {
		return false
	}
	_, _, aInB := overlap(a, b)
	return aInB
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
