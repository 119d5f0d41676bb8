// Package embed provides deterministic dense string embeddings used by the
// GED ("embedding distance") join functions.
//
// The paper uses spaCy's en_core_web_lg GloVe vectors, which are not
// available offline. As README's "Deviations from the paper" says, we
// substitute a feature-hashed character-trigram embedding: each padded
// trigram of the (pre-processed) string is hashed with FNV-1a into one of
// Dim buckets with a deterministic sign, and the signed bucket counts are
// the vector. Like a word embedding, the result is a dense vector whose
// cosine distance is robust to token reordering and small edits, which is
// the role GED plays in the configuration space.
//
// The vector is kept as its integer counts, never normalised: the dot
// product and squared norms are exact int64 sums, and the cosine distance
// is 1 − dot/√(na·nb) with one correctly rounded product, square root and
// division, so every path that scores GED gives the same bits on every
// architecture. A stored vector sits in narrow int8 lanes when every count
// fits one, and otherwise in wide int32 lanes (Lanes), never clamped.
package embed

import (
	"math"
	"unicode/utf8"
)

// Dim is the dimensionality of the hashed embedding space.
const Dim = 64

// Vector is a string's embedding: its signed trigram count per bucket.
type Vector [Dim]int32

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so embedding a
// string allocates nothing: no hash object, no materialized gram slice).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvRune folds one rune's UTF-8 bytes into an FNV-1a state, matching
// what hash/fnv would compute over the encoded string.
func fnvRune(h uint64, r rune) uint64 {
	var buf [utf8.UTFMax]byte
	n := utf8.EncodeRune(buf[:], r)
	for _, b := range buf[:n] {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// fnvString is FNV-1a over the raw bytes of s.
func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// addGram accumulates one padded trigram into the vector: the FNV-1a hash
// of the gram's UTF-8 bytes picks a bucket and a deterministic sign.
func (v *Vector) addGram(a, b, c rune) {
	sum := fnvRune(fnvRune(fnvRune(fnvOffset64, a), b), c)
	if (sum>>32)&1 == 1 {
		v[sum%Dim]--
	} else {
		v[sum%Dim]++
	}
}

// Embed maps s to its hashed-trigram count vector. Empty input yields the
// zero vector. When every signed count cancels, the vector falls back to a
// one-hot bucket picked by the hash of s, so it is still non-zero and
// deterministic.
//
// The trigrams are the same '#'-padded rune windows tokenize.QGrams(s, 3)
// produces and each is hashed exactly as hash/fnv would hash the gram
// string, but the window slides over s directly — one rune decode per
// position, zero allocations — because Embed sits under every record
// build and query.
func Embed(s string) Vector {
	var v Vector
	if s == "" {
		return v
	}
	a, b := '#', '#'
	for _, r := range s {
		v.addGram(a, b, r)
		a, b = b, r
	}
	v.addGram(a, b, '#')
	v.addGram(b, '#', '#')
	if v == (Vector{}) {
		v[fnvString(s)%Dim] = 1
	}
	return v
}

// Norm returns the exact squared norm of v.
func (v *Vector) Norm() int64 { return NormOf(v[:]) }

// Lanes returns v as wide lanes, with its squared norm.
func (v *Vector) Lanes() Lanes { return Lanes{Wide: v[:], Norm: v.Norm()} }

// Unit returns v divided by its Euclidean norm, the unit vector of the
// same direction (the zero vector for the empty string).
func (v *Vector) Unit() [Dim]float64 {
	var u [Dim]float64
	if n := v.Norm(); n > 0 {
		r := math.Sqrt(float64(n))
		for i, x := range v {
			u[i] = float64(x) / r
		}
	}
	return u
}

// Lanes is one embedding as a stored row holds it: Dim counts in narrow
// int8 lanes when every count fits one (Narrow), otherwise in wide int32
// lanes (Wide, Narrow nil), with the exact squared norm.
type Lanes struct {
	Narrow []int8
	Wide   []int32
	Norm   int64
}

// Narrow writes the Dim counts of wide into the lanes of dst and reports
// whether every count fit an int8; when one did not, dst is left partly
// written.
func Narrow(dst []int8, wide []int32) bool {
	dst = dst[:Dim]
	for i, x := range wide[:Dim] {
		if x < math.MinInt8 || x > math.MaxInt8 {
			return false
		}
		dst[i] = int8(x)
	}
	return true
}

// maxMass bounds the summed magnitude of a vector's counts so that its
// squared norm, at most the square of that sum, fits an int64. The counts
// of a string sum to at most its trigram count, its runes + 2.
const maxMass = 3_037_000_499 // ⌊√(2^63 − 1)⌋

// Valid reports whether the counts of wide could be a string's: their
// magnitudes sum to no more than maxMass, so the squared norm and every
// dot product with another valid vector are exact int64s.
func Valid(wide []int32) bool {
	var mass int64
	for _, x := range wide[:Dim] {
		mass += max(int64(x), -int64(x))
	}
	return mass <= maxMass
}

// NormOf returns the exact squared norm of Dim lanes.
func NormOf[T int8 | int32](x []T) int64 {
	var n int64
	for _, c := range x[:Dim] {
		n += int64(c) * int64(c)
	}
	return n
}

// dot returns the exact dot product of two Dim-lane vectors.
//
//autofj:hotpath
func dot[A, B int8 | int32](a []A, b []B) int64 {
	a, b = a[:Dim], b[:Dim]
	var d int64
	for i := range Dim {
		d += int64(a[i]) * int64(b[i])
	}
	return d
}

// CosineDistance returns 1 - cosine similarity of a and b, clamped to
// [0, 1] (negative cosine similarity is treated as maximally distant).
// Zero vectors are maximally distant from everything except each other.
func CosineDistance(a, b Vector) float64 {
	return cosine(dot(a[:], b[:]), a.Norm(), b.Norm())
}

// CosineDistanceLanes is CosineDistance over stored lanes of any widths,
// bit-identical to it on the vectors they hold.
//
//autofj:hotpath
func CosineDistanceLanes(a, b Lanes) float64 {
	var d int64
	switch {
	case a.Narrow != nil && b.Narrow != nil:
		d = dot(a.Narrow, b.Narrow)
	case a.Narrow != nil:
		d = dot(b.Wide, a.Narrow)
	case b.Narrow != nil:
		d = dot(a.Wide, b.Narrow)
	default:
		d = dot(a.Wide, b.Wide)
	}
	return cosine(d, a.Norm, b.Norm)
}

// cosine is the clamped cosine distance of two vectors with exact dot
// product dot and squared norms na and nb. The integers convert exactly
// while below 2^53, and the product, square root and division are each
// correctly rounded, with no sum a compiler could fuse.
//
//autofj:hotpath
func cosine(dot, na, nb int64) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - float64(dot)/math.Sqrt(float64(na)*float64(nb))
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// Distance embeds both strings and returns their cosine distance.
func Distance(a, b string) float64 {
	return CosineDistance(Embed(a), Embed(b))
}
