package config

import (
	"math"
	"sort"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// This file holds the statistics-independent half of a Profile. Profile
// is built in two steps — a count profile first (CountProfile: processed
// strings, embeddings, token COUNT vectors), then the IDF vectors derived
// from the counts by weighIDF. Learning and a mutable table (core.Table)
// both start from count profiles: they intern the counted tokens into a
// Vocab and derive the IDF view with weighIDF's arithmetic (weighRun),
// once per record when learning and per candidate in a table, so their
// distances stay bit-identical to full Profiles built against the same
// statistics.

// Rep identifies one (pre-processing, tokenization) representation pair.
type Rep struct {
	Pre textproc.Option
	Tok tokenize.Option
}

// IDFReps lists the representation pairs for which the space needs IDF
// statistics, in a fixed (pre, tok) order.
func (c *Corpus) IDFReps() []Rep {
	var reps []Rep
	for p := 0; p < numPre; p++ {
		for t := 0; t < numTok; t++ {
			if c.needVec[p][t][weights.IDF] {
				reps = append(reps, Rep{Pre: textproc.Option(p), Tok: tokenize.Option(t)})
			}
		}
	}
	return reps
}

// NeedCounts reports whether the space needs the token counts of (pre, tok)
// — because it uses equal weighting directly, or as the base of a derived
// IDF weighting.
func (c *Corpus) NeedCounts(pre textproc.Option, tok tokenize.Option) bool {
	return c.needVec[pre][tok][weights.Equal] || c.needVec[pre][tok][weights.IDF]
}

// CountProfile builds the statistics-independent profile of one record:
// pre-processed strings, embeddings, and raw token COUNT vectors (stored in
// the Equal slot, which doubles as the carrier for derived IDF weights).
// Unlike Profile it never reads corpus statistics, so count profiles stay
// valid across any sequence of table mutations. An option whose string
// equals an earlier option's shares that option's string, embedding and
// count vectors, which are then the same tokens.
func (c *Corpus) CountProfile(s string) *Profile {
	p := &Profile{Raw: s}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		pre := textproc.Option(pi)
		proc := pre.Apply(s)
		pj := sameAs(&p.proc, &c.needProc, pi, proc)
		if pj >= 0 {
			proc = p.proc[pj]
		}
		p.proc[pi] = proc
		if c.needEmb[pi] {
			if pj >= 0 && c.needEmb[pj] {
				p.emb[pi] = p.emb[pj]
			} else {
				p.ensureEmb()[pi] = embed.Embed(proc)
			}
		}
		for ti := 0; ti < numTok; ti++ {
			tok := tokenize.Option(ti)
			if !c.NeedCounts(pre, tok) {
				continue
			}
			if pj >= 0 && c.NeedCounts(textproc.Option(pj), tok) {
				p.ensureVec(pi, ti)[weights.Equal] = p.vecs[pj][ti][weights.Equal]
			} else {
				p.ensureVec(pi, ti)[weights.Equal] = countVec(tok, proc)
			}
		}
	}
	return p
}

// countVec tokenizes s under tok, sorts the occurrences once and
// run-length encodes them into the count vector: distinct tokens
// ascending, each weighted by its occurrence count, with Sum and Norm
// accumulated in ascending token order. Those are the values, in the same
// floating-point order, that Scheme.Vector(Equal) + NewSparse produce (a
// count of k is k additions of 1.0 — an exact integer either way), built
// without a map and stored in exact-sized slices.
func countVec(tok tokenize.Option, s string) distance.Sparse {
	toks := tok.Tokens(s)
	sort.Strings(toks)
	n := 0
	for i := range toks {
		if i == 0 || toks[i] != toks[i-1] {
			n++
		}
	}
	v := distance.Sparse{Tokens: make([]string, n), W: make([]float64, n)}
	k := -1
	for i, t := range toks {
		if i == 0 || t != toks[i-1] {
			k++
			v.Tokens[k] = t
		}
		v.W[k]++
	}
	var norm float64
	for _, w := range v.W {
		v.Sum += w
		norm += w * w
	}
	v.Norm = math.Sqrt(norm)
	return v
}

// idfVec derives the IDF-weighted vector of a count vector under st,
// sharing its token list (see weighIDF for the arithmetic).
func idfVec(counts *distance.Sparse, st *weights.Stats) distance.Sparse {
	w := make([]float64, len(counts.W))
	sum, norm := weighIDF(w, counts, st)
	return distance.Sparse{Tokens: counts.Tokens, W: w, Sum: sum, Norm: math.Sqrt(norm)}
}

// weighIDF writes count*idf for every token of counts into dst (which has
// len(counts.W) entries) and returns the weight sum and the sum of squared
// weights, both accumulated in ascending token order — exactly the
// arithmetic of Scheme.Vector(IDF) + NewSparse. A nil st weighs by count
// alone, as Scheme.Vector does.
//
//autofj:hotpath
func weighIDF(dst []float64, counts *distance.Sparse, st *weights.Stats) (sum, norm float64) {
	for i, tok := range counts.Tokens {
		w := counts.W[i]
		if st != nil {
			w *= st.IDF(tok)
		}
		dst[i] = w
		sum += w
		norm += w * w
	}
	return sum, norm
}

// CountVec returns the token-count vector of (pre, tok) — distinct tokens
// ascending with their occurrence counts as weights — or the zero vector
// when the profile was built without that representation.
func (p *Profile) CountVec(pre textproc.Option, tok tokenize.Option) distance.Sparse {
	if v := p.vecs[pre][tok]; v != nil {
		return v[weights.Equal]
	}
	return distance.Sparse{}
}
