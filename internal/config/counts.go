package config

import (
	"math"
	"slices"
	"sort"
	"unicode/utf8"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// This file holds the statistics-independent half of a record build: its
// processed strings, embeddings and token COUNTS, from which the IDF
// weights are derived under some statistics.
//
// Learning and a mutable table (core.Table) count records in integers:
// CountRecord fills a Counted whose 3-grams are packed uint64 keys
// (tokenize.AppendGramKeys: three runes at 21 bits each, so ascending
// keys are ascending gram strings) and whose words are substrings of the
// processed string; the keys are sorted as integers and run-length
// encoded, and a Vocab interns them by key, making a gram's string once,
// when its slot is new. Weights derive from the counts with weighIDF's
// arithmetic, once per prepared side and per candidate token inside the
// set kernel.
//
// Corpus.CountProfile is the string form of the same counts — one heap
// string per token, sorted with sort.Strings — kept as the base of the
// full string Profile, the reference the tests hold the integer path to.
// Both give the same tokens in the same order with the same counts, Sums
// and Norms, so every distance is bit-identical between them.

// Rep identifies one (pre-processing, tokenization) representation pair.
type Rep struct {
	Pre textproc.Option
	Tok tokenize.Option
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

// Counted is the statistics-independent build of one record in a Vocab's
// layout: its processed strings, its embeddings (integer count vectors,
// by layout position), and by layout position each counted
// representation's distinct tokens ascending with their occurrence counts.
// Its buffers are reused by the next CountRecord into it.
type Counted struct {
	proc textproc.Forms
	emb  []embed.Vector
	runs [numPre * numTok]tokenRun
}

// tokenRun is one representation's count vector in integers: distinct
// tokens ascending — packed 3-gram keys or words — with their counts, and
// where AppendChunk interns their slots.
type tokenRun struct {
	keys   []uint64 // 3-grams
	words  []string // words
	counts []uint32
	at     int // the run's first slot in AppendChunk's buffer
}

// count fills run with the count vector of s under tok, reusing its
// buffers: countVec's tokens and counts.
func (run *tokenRun) count(tok tokenize.Option, s string) {
	// The buffers are grown once to a bound on the token count: runes + 2
	// grams, or (bytes + 1) / 2 words.
	if tok == tokenize.QGram3 {
		n := utf8.RuneCountInString(s) + 2
		keys := tokenize.AppendGramKeys(slices.Grow(run.keys[:0], n), s)
		slices.Sort(keys)
		run.keys, run.counts = rle(keys, slices.Grow(run.counts[:0], len(keys)))
	} else {
		words := tokenize.AppendWords(slices.Grow(run.words[:0], (len(s)+1)/2), s)
		sort.Strings(words)
		run.words, run.counts = rle(words, slices.Grow(run.counts[:0], len(words)))
	}
}

// RunSums returns the Sum and Norm of a count vector, accumulated in
// ascending token order as countVec's are. A stored run keeps neither:
// both are derived from its counts where they are read.
func RunSums(counts []uint32) (sum, norm float64) {
	if allOnes(counts) {
		// n ones sum, and square-sum, to n exactly.
		n := float64(len(counts))
		return n, math.Sqrt(n)
	}
	for _, c := range counts {
		w := float64(c)
		sum += w
		// An integer count's square is exact, so fusing it would give
		// the same bits; it is rounded anyway so the arm64 listing
		// holds no fused op to vet.
		norm += float64(w * w)
	}
	return sum, math.Sqrt(norm)
}

// allOnes reports whether every count is 1: a run stored with no counts.
func allOnes(counts []uint32) bool {
	for _, c := range counts {
		if c != 1 {
			return false
		}
	}
	return true
}

// rle compacts the sorted toks to their distinct values in place and
// appends each one's occurrence count to counts.
func rle[T comparable](toks []T, counts []uint32) ([]T, []uint32) {
	n := 0
	for i, t := range toks {
		if i > 0 && t == toks[n-1] {
			counts[n-1]++
			continue
		}
		toks[n] = t
		counts = append(counts, 1)
		n++
	}
	return toks[:n], counts
}

// CountRecord fills dst with the build of record s (see Counted). proc,
// when not nil, holds s's processed strings under at least the options
// this vocabulary stores (Forms); otherwise s is processed in one pass
// (textproc.Process). An option whose string equals an earlier option's
// shares that option's string, embedding and counts. CountRecord reads no
// vocabulary state, so it is safe to call concurrently with anything for
// distinct dst.
func (v *Vocab) CountRecord(dst *Counted, s string, proc *textproc.Forms) {
	lay := v.lay
	if len(dst.emb) != lay.nemb {
		dst.emb = make([]embed.Vector, lay.nemb)
	}
	if proc == nil {
		textproc.Process(&dst.proc, s, lay.forms)
		proc = &dst.proc
	}
	for pi := 0; pi < numPre; pi++ {
		if lay.proc[pi] < 0 {
			continue
		}
		ps := proc[pi]
		pj := sameAs((*[numPre]string)(&dst.proc), &lay.needProc, pi, ps)
		if pj >= 0 {
			ps = dst.proc[pj]
		}
		dst.proc[pi] = ps
		if e := lay.emb[pi]; e >= 0 {
			if pj >= 0 && lay.emb[pj] >= 0 {
				dst.emb[e] = dst.emb[lay.emb[pj]]
			} else {
				dst.emb[e] = embed.Embed(ps)
			}
		}
		for ti := 0; ti < numTok; ti++ {
			r := lay.rep[pi][ti]
			if r < 0 {
				continue
			}
			run := &dst.runs[r]
			if pj >= 0 && lay.rep[pj][ti] >= 0 {
				src := &dst.runs[lay.rep[pj][ti]]
				run.keys = append(run.keys[:0], src.keys...)
				run.words = append(run.words[:0], src.words...)
				run.counts = append(run.counts[:0], src.counts...)
			} else {
				run.count(tokenize.Option(ti), ps)
			}
		}
	}
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
		norm += float64(w * w) // an exact integer-count square; see tokenRun.count
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
		norm += float64(w * w)
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
