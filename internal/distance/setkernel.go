package distance

// This file holds the fused set-family kernel. The eight set-based
// distances of Table 1 (JD, CD, DD, MD, ID and the Contain-* hybrids)
// differ only in the closed-form scoring formula applied to the same
// shared statistics of one sorted-merge pass: the weighted min-overlap,
// the dot product, the per-set sums and norms (already carried by Sparse),
// and the r ⊆ l containment gate. Evaluating them together turns
// eight merges per candidate pair into one — the shared-computation
// optimization the paper applies to its configuration-space evaluation.
//
// Every formula below is the exact arithmetic of the single-function
// entry points in sets.go (same operations in the same order), so the
// fused kernel is bit-identical to calling them one by one; the
// equivalence is enforced by TestSetFamilyMatchesSingles and
// FuzzSetFamily.

// SetDists holds every set-family distance for one (l, r) pair, l being
// the reference-side record (the directional ID and Contain-* distances
// measure how much of r is missing from l).
type SetDists struct {
	JD  float64 // weighted Jaccard
	CD  float64 // cosine
	DD  float64 // Dice
	MD  float64 // max-inclusion
	ID  float64 // inclusion of r in l
	CJD float64 // containment-gated Jaccard
	CCD float64 // containment-gated cosine
	CDD float64 // containment-gated Dice
}

// mergeStats is the one-pass sorted-merge behind SetFamily: the weighted
// min-overlap Σ min(l_i, r_i), the dot product Σ l_i·r_i, and the
// containment r ⊆ l that gates the Contain-* family. It subsumes
// overlap(l, r) and containedIn(r, l) in a single scan.
func mergeStats(l, r Sparse) (sumMin, dot float64, rInL bool) {
	i, j := 0, 0
	rInL = true
	for i < len(l.Tokens) && j < len(r.Tokens) {
		switch {
		case l.Tokens[i] == r.Tokens[j]:
			wl, wr := l.W[i], r.W[j]
			if wl < wr {
				sumMin += wl
			} else {
				sumMin += wr
			}
			dot += float64(wl * wr)
			i++
			j++
		case l.Tokens[i] < r.Tokens[j]:
			i++
		default:
			rInL = false
			j++
		}
	}
	if j < len(r.Tokens) {
		rInL = false
	}
	return sumMin, dot, rInL
}

// SetFamily evaluates all eight set-based distances of one pair with a
// single sorted-merge. l is the reference-side record, r the query-side
// record, exactly as in the single-function entry points.
func SetFamily(l, r Sparse) SetDists {
	if l.Empty() || r.Empty() {
		return emptyFamily(l.Empty(), r.Empty())
	}
	sumMin, dot, rInL := mergeStats(l, r)
	return family(l.Sum, l.Norm, r.Sum, r.Norm, sumMin, dot, rInL)
}

// emptyFamily is the distance row of a pair with at least one empty set.
// Two empty sets are identical (0 everywhere — an empty r is contained in
// any l, and Jaccard/Dice of two empties is 0); one empty set is
// maximally different (1 everywhere — the Contain-* gate either fails or
// passes into a one-empty distance of 1).
func emptyFamily(lEmpty, rEmpty bool) SetDists {
	if lEmpty && rEmpty {
		return SetDists{}
	}
	return SetDists{JD: 1, CD: 1, DD: 1, MD: 1, ID: 1, CJD: 1, CCD: 1, CDD: 1}
}

// family applies the closed forms to the shared statistics of one pair of
// non-empty sets.
func family(lSum, lNorm, rSum, rNorm, sumMin, dot float64, rInL bool) SetDists {
	var d SetDists

	// Weighted Jaccard: 1 - Σmin / Σmax.
	if union := lSum + rSum - sumMin; union <= 0 {
		d.JD = 0
	} else {
		d.JD = clamp01(1 - sumMin/union)
	}
	// Cosine: 1 - l·r / (|l||r|).
	if den := lNorm * rNorm; den <= 0 {
		d.CD = 1
	} else {
		d.CD = clamp01(1 - dot/den)
	}
	// Dice: 1 - 2Σmin / (Σl + Σr).
	if den := lSum + rSum; den <= 0 {
		d.DD = 0
	} else {
		d.DD = clamp01(1 - 2*sumMin/den)
	}
	// Max-inclusion: overlap relative to the smaller set.
	minSum := lSum
	if rSum < minSum {
		minSum = rSum
	}
	if minSum <= 0 {
		d.MD = 0
	} else {
		d.MD = clamp01(1 - sumMin/minSum)
	}
	// Inclusion of r in l: how much of the right record is missing.
	if rSum <= 0 {
		d.ID = 0
	} else {
		d.ID = clamp01(1 - sumMin/rSum)
	}
	// Contain-*: gate on r ⊆ l, then reuse the symmetric formula.
	if rInL {
		d.CJD, d.CCD, d.CDD = d.JD, d.CD, d.DD
	} else {
		d.CJD, d.CCD, d.CDD = 1, 1, 1
	}
	return d
}
