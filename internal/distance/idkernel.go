package distance

// This file holds the token-id variant of the fused set-family kernel.
// The serving table (internal/config.Vocab and Rows) ranks every
// reference-side token into a dense id assigned in ascending lexical
// order, so a sorted-merge over int32 ids visits exactly the same matched
// tokens, in exactly the same order, as the string merge in setkernel.go —
// the accumulated sumMin/dot values are therefore bit-identical, and
// SetFamilyIDs reproduces SetFamily to the last float bit (enforced by
// TestSetFamilyIDsMatchesStrings and core's TestTableMatchesPointerOracle).
//
// Query-side vectors may contain tokens outside the reference vocabulary.
// Those tokens have no id, so they are excluded from the merge lists —
// they can never match a reference token, so they contribute nothing to
// sumMin or dot in either representation — but their weights still count
// toward Sum/Norm/N, and their presence is recorded in Extra, which
// forces the r ⊆ l containment gate false exactly as the string merge
// would. At most one side of a pair may carry Extra tokens (two
// out-of-vocabulary tokens on opposite sides could be equal as strings
// but are invisible to the id merge); the serving path satisfies this by
// construction, since the reference side is always fully in-vocabulary.

// IDVec is a weighted token set in sorted-id sparse form, the columnar
// counterpart of Sparse.
type IDVec struct {
	IDs  []int32   // in-vocabulary distinct token ids, sorted ascending
	W    []float64 // weight per id, parallel to IDs; > 0
	Sum  float64   // sum of weights over ALL tokens, including out-of-vocabulary ones
	Norm float64   // sqrt of the weight square sum over ALL tokens
	N    int32     // total distinct tokens, including out-of-vocabulary ones
	// Extra records out-of-vocabulary tokens: they break the r ⊆ l
	// containment gate and are already folded into Sum/Norm/N.
	Extra bool
}

// Empty reports whether the set has no tokens at all.
func (v IDVec) Empty() bool { return v.N == 0 }

// mergeStatsIDs mirrors mergeStats over id space: same matched pairs in
// the same ascending order, so the float accumulation is identical.
//
//autofj:hotpath
func mergeStatsIDs(l, r IDVec) (sumMin, dot float64, rInL bool) {
	i, j := 0, 0
	rInL = true
	for i < len(l.IDs) && j < len(r.IDs) {
		switch {
		case l.IDs[i] == r.IDs[j]:
			wl, wr := l.W[i], r.W[j]
			if wl < wr {
				sumMin += wl
			} else {
				sumMin += wr
			}
			dot += wl * wr
			i++
			j++
		case l.IDs[i] < r.IDs[j]:
			i++
		default:
			rInL = false
			j++
		}
	}
	if j < len(r.IDs) {
		rInL = false
	}
	if r.Extra {
		rInL = false
	}
	return sumMin, dot, rInL
}

// SetFamilyIDs evaluates all eight set-based distances of one pair over
// interned token ids, bit-identical to SetFamily on the equivalent
// string-keyed vectors. l is the reference-side record (always fully
// in-vocabulary), r the query-side record.
//
//autofj:hotpath
func SetFamilyIDs(l, r IDVec) SetDists {
	if l.Empty() || r.Empty() {
		if l.Empty() && r.Empty() {
			return SetDists{}
		}
		return SetDists{JD: 1, CD: 1, DD: 1, MD: 1, ID: 1, CJD: 1, CCD: 1, CDD: 1}
	}
	sumMin, dot, rInL := mergeStatsIDs(l, r)
	var d SetDists

	// Weighted Jaccard: 1 - Σmin / Σmax.
	if union := l.Sum + r.Sum - sumMin; union <= 0 {
		d.JD = 0
	} else {
		d.JD = clamp01(1 - sumMin/union)
	}
	// Cosine: 1 - l·r / (|l||r|).
	if den := l.Norm * r.Norm; den <= 0 {
		d.CD = 1
	} else {
		d.CD = clamp01(1 - dot/den)
	}
	// Dice: 1 - 2Σmin / (Σl + Σr).
	if den := l.Sum + r.Sum; den <= 0 {
		d.DD = 0
	} else {
		d.DD = clamp01(1 - 2*sumMin/den)
	}
	// Max-inclusion: overlap relative to the smaller set.
	minSum := l.Sum
	if r.Sum < minSum {
		minSum = r.Sum
	}
	if minSum <= 0 {
		d.MD = 0
	} else {
		d.MD = clamp01(1 - sumMin/minSum)
	}
	// Inclusion of r in l: how much of the right record is missing.
	if r.Sum <= 0 {
		d.ID = 0
	} else {
		d.ID = clamp01(1 - sumMin/r.Sum)
	}
	// Contain-*: gate on r ⊆ l, then reuse the symmetric formula.
	if rInL {
		d.CJD, d.CCD, d.CDD = d.JD, d.CD, d.DD
	} else {
		d.CJD, d.CCD, d.CDD = 1, 1, 1
	}
	return d
}
