// Package weights implements the token-weighting options of the
// Auto-FuzzyJoin configuration space (Figure 2, "Token-weights"):
// equal weights (EW) and inverse-document-frequency weights (IDFW).
//
// A weighting scheme turns the token multiset of a record into a weighted
// vector consumed by the set-based distances. IDF statistics are computed
// once per (table corpus, tokenization) pair and shared.
package weights

import (
	"math"
	"sync/atomic"
)

// Scheme identifies a token-weighting scheme.
type Scheme uint8

const (
	// Equal gives every token occurrence weight 1 (EW).
	Equal Scheme = iota
	// IDF weighs each token by log(1 + N/df) over the corpus (IDFW).
	IDF
)

// Options returns the weighting schemes of Table 1, in a stable order.
func Options() []Scheme { return []Scheme{Equal, IDF} }

// String returns the paper's abbreviation for the scheme.
func (s Scheme) String() string {
	if s == Equal {
		return "EW"
	}
	return "IDFW"
}

// IDFTable memoizes the IDF weight log(1 + N/df) by df under one document
// count N. The weight depends only on the integers (N, df), so idf[df]
// holds the float bits of the weight under the current N (0 = not yet
// computed — the weight itself is never 0). The table spans every
// df <= N and is allocated by the constructors and SetDocs, never on the
// read path, so Weight is allocation-free and safe for concurrent
// readers. SetDocs changes N and so forgets every memoized weight; it
// needs exclusive access. The zero value is a table over no documents.
type IDFTable struct {
	idf  []atomic.Uint64
	docs int
	// memo is set once any idf entry is filled, so a run of SetDocs calls
	// with no read in between (a table build) clears the table at most once.
	memo atomic.Bool
}

// Docs returns the document count N.
func (w *IDFTable) Docs() int { return w.docs }

// SetDocs sets the document count, dropping every memoized weight and
// growing the table with amortised capacity when n has outrun it.
func (w *IDFTable) SetDocs(n int) {
	w.docs = n
	if n >= len(w.idf) {
		w.idf = make([]atomic.Uint64, n+n/2+16)
	} else if w.memo.Load() {
		clear(w.idf)
	}
	w.memo.Store(false)
}

// Weight returns log(1 + N/df), with N and df each raised to at least 1:
// an unseen token (df 0) is weighed as df = 1, which gives it the largest
// weight, log(1 + N), so weights stay bounded and rare tokens are
// favored, as the paper intends. A (N, df) pair already answered costs an
// atomic load instead of a math.Log.
//
//autofj:hotpath
func (w *IDFTable) Weight(df int) float64 {
	if df < 1 {
		df = 1
	}
	n := w.docs
	if n < 1 {
		n = 1
	}
	if df >= len(w.idf) { // empty corpus, or a df above N
		return math.Log(1 + float64(n)/float64(df))
	}
	slot := &w.idf[df]
	if bits := slot.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	v := math.Log(1 + float64(n)/float64(df))
	slot.Store(math.Float64bits(v))
	w.memo.Store(true)
	return v
}

// Stats holds corpus document frequencies for IDF weighting: df by token,
// with the weights memoized by df in an IDFTable. Stats is immutable
// after construction and safe for concurrent readers.
type Stats struct {
	df map[string]int
	w  IDFTable
}

// NewStats builds document-frequency statistics from a corpus of tokenized
// documents. Each document contributes at most 1 to a token's df.
func NewStats(docs [][]string) *Stats {
	df := make(map[string]int)
	seen := make(map[string]bool)
	for _, d := range docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, tok := range d {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	n := len(docs)
	return &Stats{df: df, w: IDFTable{idf: make([]atomic.Uint64, n+1), docs: n}}
}

// Docs returns the number of documents the statistics were built from.
func (s *Stats) Docs() int { return s.w.docs }

// IDF returns log(1 + N/df) for the token, where N is the document count
// (see IDFTable.Weight; an unseen token has df 0 and is weighed as df 1).
//
//autofj:hotpath
func (s *Stats) IDF(token string) float64 {
	return s.w.Weight(s.df[token])
}

// Vector turns a token multiset into a weighted vector under the scheme.
// Under Equal, a token occurring k times gets weight k; under IDF it gets
// k * idf(token). stats may be nil for Equal.
func (s Scheme) Vector(tokens []string, stats *Stats) map[string]float64 {
	v := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		v[t]++
	}
	if s == IDF && stats != nil {
		//autofj:nondet-ok per-key multiply into the same map; the result is identical under any iteration order
		for t := range v {
			v[t] *= stats.IDF(t)
		}
	}
	return v
}
