// Package embed provides deterministic dense string embeddings used by the
// GED ("embedding distance") join functions.
//
// The paper uses spaCy's en_core_web_lg GloVe vectors, which are not
// available offline. As README's "Deviations from the paper" says, we
// substitute a feature-hashed character-trigram embedding: each padded
// trigram of the (pre-processed) string is hashed with FNV-1a into one of
// Dim buckets with a deterministic sign, the bucket counts are accumulated
// and the vector is L2-normalized. Like a word embedding, the result is a
// dense vector whose cosine distance is robust to token reordering and
// small edits, which is the role GED plays in the configuration space.
package embed

import (
	"math"
	"unicode/utf8"
)

// Dim is the dimensionality of the hashed embedding space.
const Dim = 64

// Vector is a dense embedding.
type Vector [Dim]float64

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

// Embed maps s to its L2-normalized hashed-trigram embedding. Empty input
// yields the zero vector.
//
// The trigrams are the same '#'-padded rune windows tokenize.QGrams(s, 3)
// produces and each is hashed exactly as hash/fnv would hash the gram
// string, but the window slides over s directly — one rune decode per
// position, zero allocations — because Embed sits under Corpus.Profile on
// the per-query match path.
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
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		// Degenerate (all signed counts cancelled): fall back to a one-hot
		// bucket so the vector is still unit-length and deterministic.
		v[fnvString(s)%Dim] = 1
		return v
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	return v
}

// CosineDistance returns 1 - cosine similarity of a and b, clamped to
// [0, 1] (negative cosine similarity is treated as maximally distant).
// Zero vectors are maximally distant from everything except each other.
func CosineDistance(a, b Vector) float64 { return CosineDistanceFlat(a[:], b[:]) }

// CosineDistanceFlat is CosineDistance over Dim-length slices, the form
// in which stored table rows (config.Rows) hold their embeddings.
//
//autofj:hotpath
func CosineDistanceFlat(a, b []float64) float64 {
	a = a[:Dim]
	b = b[:Dim]
	var dot, na, nb float64
	for i := 0; i < Dim; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/math.Sqrt(na*nb)
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
