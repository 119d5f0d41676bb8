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
	"sort"
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

// Stats holds corpus document frequencies for IDF weighting.
//
// log(1 + N/df) depends only on the integers (N, df), so IDF memoizes it
// by df: idf[df] holds the float bits of the weight under the current N
// (0 = not yet computed — the weight itself is never 0). The table spans
// every df <= docs of a non-empty corpus and is allocated by the
// constructors and the mutators, never on the read path, so IDF is
// allocation-free and safe for concurrent readers. AddDocTokens/RemoveDocTokens change N and so forget
// every memoized weight; they need exclusive access, as they always did
// for the df map.
type Stats struct {
	df   map[string]int
	idf  []atomic.Uint64
	docs int
	// memo is set once any idf entry is filled, so a run of mutations with
	// no read in between (a table build) clears the table at most once.
	memo atomic.Bool
}

// NewStats builds document-frequency statistics from a corpus of tokenized
// documents. Each document contributes at most 1 to a token's df.
func NewStats(docs [][]string) *Stats {
	s := &Stats{docs: len(docs), df: make(map[string]int), idf: make([]atomic.Uint64, len(docs)+1)}
	seen := make(map[string]bool)
	for _, d := range docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, tok := range d {
			if !seen[tok] {
				seen[tok] = true
				s.df[tok]++
			}
		}
	}
	return s
}

// NewStatsFromDF builds statistics from already-counted document
// frequencies: docs documents, df[tok] of which contain tok. It takes
// ownership of df. Given the counts NewStats would make, the result equals
// NewStats over the same corpus.
func NewStatsFromDF(docs int, df map[string]int) *Stats {
	return &Stats{docs: docs, df: df, idf: make([]atomic.Uint64, docs+1)}
}

// NewEmptyStats returns statistics over an empty corpus, ready for
// incremental maintenance via AddDocTokens/RemoveDocTokens.
func NewEmptyStats() *Stats {
	return &Stats{df: make(map[string]int)}
}

// forgetIDF drops every memoized weight after docs changed, growing the
// table with amortised capacity when docs has outrun it.
func (s *Stats) forgetIDF() {
	if s.docs >= len(s.idf) {
		s.idf = make([]atomic.Uint64, s.docs+s.docs/2+16)
	} else if s.memo.Load() {
		clear(s.idf)
	}
	s.memo.Store(false)
}

// AddDocTokens adds one document given its DISTINCT token set (duplicates
// would inflate df). Together with RemoveDocTokens this keeps Stats exactly
// equal to NewStats over the current document multiset: df and docs are
// integers, so the incremental path reproduces the batch-built statistics
// bit for bit.
func (s *Stats) AddDocTokens(distinct []string) {
	s.docs++
	for _, tok := range distinct {
		s.df[tok]++
	}
	s.forgetIDF()
}

// RemoveDocTokens removes one document previously added with the same
// distinct token set.
func (s *Stats) RemoveDocTokens(distinct []string) {
	s.docs--
	for _, tok := range distinct {
		if s.df[tok] <= 1 {
			delete(s.df, tok)
		} else {
			s.df[tok]--
		}
	}
	s.forgetIDF()
}

// Docs returns the number of documents the statistics were built from.
func (s *Stats) Docs() int { return s.docs }

// SortedEntries returns the document-frequency entries in ascending token
// order, for deterministic serialization.
func (s *Stats) SortedEntries() (tokens []string, dfs []int) {
	tokens = make([]string, 0, len(s.df))
	for tok := range s.df {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	dfs = make([]int, len(tokens))
	for i, tok := range tokens {
		dfs[i] = s.df[tok]
	}
	return tokens, dfs
}

// NewRestoredStats rebuilds statistics from previously serialized state:
// the document count plus parallel token/df slices. One map insert per
// distinct corpus token, so restoring is far cheaper than replaying
// AddDocTokens over every document.
func NewRestoredStats(docs int, tokens []string, dfs []int) *Stats {
	df := make(map[string]int, len(tokens))
	for i, tok := range tokens {
		df[tok] = dfs[i]
	}
	return NewStatsFromDF(docs, df)
}

// IDF returns log(1 + N/df) for the token, where N is the document count
// (at least 1). An unseen token is weighed as df = 1, which gives it the
// largest weight, log(1 + N): weights stay bounded and rare tokens are
// favored, as the paper intends. The weight is memoized by df (see
// Stats), so a (N, df) pair already answered costs a map lookup and an
// atomic load instead of a math.Log.
//
//autofj:hotpath
func (s *Stats) IDF(token string) float64 {
	df := s.df[token]
	if df < 1 {
		df = 1
	}
	n := s.docs
	if n < 1 {
		n = 1
	}
	if df >= len(s.idf) { // empty corpus, or a restored df above docs
		return math.Log(1 + float64(n)/float64(df))
	}
	slot := &s.idf[df]
	if bits := slot.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	w := math.Log(1 + float64(n)/float64(df))
	slot.Store(math.Float64bits(w))
	s.memo.Store(true)
	return w
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
