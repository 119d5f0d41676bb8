package distance

import (
	"math"
	"math/bits"
)

// This file holds the content bound of the set family, the set-kernel
// counterpart of CharBound: a lower bound on each of the eight set
// distances of a prepared side and a stored run, from the run's 64-bit
// token signature, the prepared side's signature tables (Hold) and, when
// known, the run's Sum and Norm. It is the bitmap filter of exact
// set-similarity joins carried over to the weighted closed forms.
//
// A token of p whose signature bit the run lacks is not in the run, so
// the tokens the two share sit at the bits both signatures set: with in
// and sq the weight and squared weight p holds at those bits, Σmin ≤ in
// and, the run being known, Σmin ≤ Sum. By Cauchy–Schwarz the dot product
// is at most √sq·Norm, and as p weighs each token at least as much as the
// run weighs it per count (a count of at least 1 times the same column
// weight), at most cmax·sq for a run of largest count cmax.
//
// Every closed form of family is non-increasing in Σmin and in the dot
// product, and non-decreasing in the run's Sum and Norm, and so is its
// floating-point evaluation, since every rounding is monotone; the one
// exception is the cosine of a zero Norm, which scores 1. The bound is
// each closed form itself at an upper bound on the kernel's Σmin and dot
// product and at the run's Sum and Norm (0 and 0 when they are not known,
// with the cosine then bounded on its own), so it never exceeds the
// kernel's value.

// Run is what SetBound reads of a stored run: its signature (SigBit of
// every token id), its length, its largest count (read for a cosine
// member only) and, when Known, its Sum and Norm exactly as the kernel
// accumulates them.
type Run struct {
	Sig       uint64
	N         int
	CMax      uint32
	Sum, Norm float64
	Known     bool
}

// SetNeed selects the members SetBound computes.
type SetNeed struct{ JD, CD, DD, MD, ID, CJD, CCD, CDD bool }

// SetBound sets d's members of need to lower bounds on the values the set
// kernels (SetFamilyIDF, SetFamilyRun) compute between p and the run r,
// oriented by pL as they are; other members are left as they were. (d is
// filled in place: a struct returned by value and copied as a whole is
// read back before its field stores retire, which stalls.) p's table and
// signature tables must have been filled by Hold with each token weighing
// a whole count of at least 1 times the column weight the run weighs it
// by (1 for a count run), as a prepared side does. A Contain-* member is
// exactly 1 once a token of r is proven missing from l: a token of the run
// at a bit p lacks, or, p being r, a token of p at a bit the run lacks or
// outside the vocabulary.
//
// Slack. With u = 2^-53 and M = p.N + r.N + 64, every computed sum of k
// non-negative terms is within a factor (1±u)^k of the exact sum of its
// terms. The kernel's Σmin and dot product sum r.N terms (a product
// rounded once each), so each is at most (1+u)^(r.N+1) times exact; in
// and sq sum at most M terms in some order (a square rounded once each),
// so each is at least (1−u)^(M+1) times exact; the run's Norm is a root
// of r.N rounded squares; and the roots, products and quotient below
// round at most four more times. Dividing by 1−u costs at most a factor
// 1+2u, so the kernel's Σmin and dot product stay below the computed
// bounds times (1+2u)^(3M) ≤ 1 + 7Mu (M·u < 2^-10). The slack 1 + M·2^-48
// (32·M·u, rounded down by at most u) covers that and the rounding of
// its own product.
//
//autofj:hotpath
func SetBound(p *Prepared, r *Run, pL bool, need SetNeed, d *SetDists) {
	if p.N == 0 || r.N == 0 {
		*d = emptyFamily(p.N == 0, r.N == 0)
		return
	}
	cos := need.CD || need.CCD
	var in, sq float64
	if cos {
		for b := p.Sig & r.Sig; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b) & 63
			in += p.BitW[k]
			sq += p.BitQ[k]
		}
	} else {
		for b := p.Sig & r.Sig; b != 0; b &= b - 1 {
			in += p.BitW[bits.TrailingZeros64(b)&63]
		}
	}
	slack := 1 + float64(float64(int(p.N)+r.N+64)*0x1p-48)
	// The run's Sum and Norm, or 0 and 0: every form is monotone in them.
	var sum, norm float64
	sumMin := in
	if r.Known {
		sum, norm = r.Sum, r.Norm
		sumMin = min(sumMin, sum)
	}
	sumMin = float64(sumMin * slack)
	lSum, lNorm, rSum, rNorm := sum, norm, p.Sum, p.Norm
	gate := !p.OOV && p.Sig&^r.Sig == 0 // r ⊆ l is not ruled out
	if pL {
		lSum, lNorm, rSum, rNorm = p.Sum, p.Norm, sum, norm
		gate = r.Sig&^p.Sig == 0
	}
	if need.JD || need.CJD {
		d.JD = jaccard(lSum, rSum, sumMin)
	}
	if need.DD || need.CDD {
		d.DD = dice(lSum, rSum, sumMin)
	}
	if need.MD {
		d.MD = maxInclusion(lSum, rSum, sumMin)
	}
	if need.ID {
		d.ID = inclusion(rSum, sumMin)
	}
	if cos {
		switch {
		case r.Known:
			dot := min(float64(float64(r.CMax)*sq), float64(math.Sqrt(sq)*norm))
			d.CD = cosine(lNorm, rNorm, float64(dot*slack))
		case p.Norm > 0:
			// cosine scores a zero Norm 1, so without the run's Norm the
			// bound is dot/(|p|·Norm) ≤ √sq/|p|.
			d.CD = clamp01(1 - float64(math.Sqrt(sq)/p.Norm*slack))
		}
	}
	contain(d, gate)
}
