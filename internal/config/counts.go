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

// This file supports mutable reference tables (core.Table): records are
// stored "at rest" as IDF-independent count profiles, and the IDF-weighted
// view is derived on demand from live corpus statistics. Profile itself is
// built the same way — a count profile first, then the IDF vectors derived
// from it by weighIDF, the helper Reweighted also uses — so the derived
// view is bit-identical to a full Profile built against the same
// statistics, and a segmented table can keep its statistics mutable
// without ever recomputing stored profiles.

// Rep identifies one (pre-processing, tokenization) representation pair.
type Rep struct {
	Pre textproc.Option
	Tok tokenize.Option
}

// SetStats installs the (typically mutable, externally maintained) IDF
// statistics for one representation pair.
func (c *Corpus) SetStats(pre textproc.Option, tok tokenize.Option, st *weights.Stats) {
	c.stats[pre][tok] = st
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

// reweight reports whether the space uses IDF weighting at all; when
// false, a count profile already is the full profile.
//
//autofj:hotpath
func (c *Corpus) reweight() bool {
	for p := 0; p < numPre; p++ {
		for t := 0; t < numTok; t++ {
			if c.needVec[p][t][weights.IDF] {
				return true
			}
		}
	}
	return false
}

// NeedProc reports whether the space needs the pre-processed string under
// pre.
func (c *Corpus) NeedProc(pre textproc.Option) bool { return c.needProc[pre] }

// NeedEmb reports whether the space needs the embedding under pre.
func (c *Corpus) NeedEmb(pre textproc.Option) bool { return c.needEmb[pre] }

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
// valid across any sequence of table mutations.
func (c *Corpus) CountProfile(s string) *Profile {
	p := &Profile{Raw: s}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		pre := textproc.Option(pi)
		p.proc[pi] = pre.Apply(s)
		if c.needEmb[pi] {
			p.ensureEmb()[pi] = embed.Embed(p.proc[pi])
		}
		for ti := 0; ti < numTok; ti++ {
			if !c.NeedCounts(pre, tokenize.Option(ti)) {
				continue
			}
			p.ensureVec(pi, ti)[weights.Equal] = countVec(tokenize.Option(ti), p.proc[pi])
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

// ProfileParts is the exported decomposition of a count profile, used by
// the binary snapshot codec in core. ProcSet/CountSet mark which slots were
// populated; unset slots stay zero.
type ProfileParts struct {
	Raw      string
	Proc     [4]string
	ProcSet  [4]bool
	Emb      [4]embed.Vector
	EmbSet   [4]bool
	Counts   [4][2]distance.Sparse
	CountSet [4][2]bool
}

// Parts decomposes a count profile for serialization, guided by the
// corpus's representation needs.
func (c *Corpus) Parts(p *Profile) ProfileParts {
	var parts ProfileParts
	parts.Raw = p.Raw
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		parts.Proc[pi] = p.proc[pi]
		parts.ProcSet[pi] = true
		if c.needEmb[pi] {
			parts.Emb[pi] = p.emb[pi]
			parts.EmbSet[pi] = true
		}
		for ti := 0; ti < numTok; ti++ {
			if c.NeedCounts(textproc.Option(pi), tokenize.Option(ti)) {
				parts.Counts[pi][ti] = p.vecs[pi][ti][weights.Equal]
				parts.CountSet[pi][ti] = true
			}
		}
	}
	return parts
}

// FillProfileFromParts reassembles a count profile from its serialized
// parts into dst, which must be zero-valued (typically a fresh arena
// slot): unset slots are left alone, not cleared. Vector blocks are carved
// off vecArena while it lasts (snapshot load pre-sizes it from the
// serialized totals), falling back to individual allocations. The pointer
// parameters keep the multi-KB structs off the copy path — snapshot load
// calls this once per reference row.
func FillProfileFromParts(dst *Profile, parts *ProfileParts, vecArena *[]VecBlock) {
	dst.Raw = parts.Raw
	for pi := 0; pi < numPre; pi++ {
		if parts.ProcSet[pi] {
			dst.proc[pi] = parts.Proc[pi]
		}
		if parts.EmbSet[pi] {
			dst.ensureEmb()[pi] = parts.Emb[pi]
		}
		for ti := 0; ti < numTok; ti++ {
			if parts.CountSet[pi][ti] {
				if vecArena != nil && len(*vecArena) > 0 {
					dst.vecs[pi][ti] = &(*vecArena)[0]
					*vecArena = (*vecArena)[1:]
				}
				dst.ensureVec(pi, ti)[weights.Equal] = parts.Counts[pi][ti]
			}
		}
	}
}

// ReweightScratch holds the reusable buffers of Reweighted. The profile it
// returns aliases these buffers, so each in-flight reweighted profile needs
// its own scratch and the result must be consumed before the next call.
type ReweightScratch struct {
	w      [numPre][numTok][]float64
	blocks [numPre][numTok]VecBlock
	prof   Profile
}

// Release drops the per-candidate profile view and vector blocks so a
// pooled scratch cannot pin reference-row memory across calls; the numeric
// weight buffers (which hold no references) are kept for reuse.
func (rs *ReweightScratch) Release() {
	rs.prof = Profile{}
	rs.blocks = [numPre][numTok]VecBlock{}
}

// Held reports whether the scratch still holds a derived profile view —
// i.e. Release has not run since the last Reweighted call. Pool-hygiene
// tests use this to verify a returned scratch pins no row memory.
func (rs *ReweightScratch) Held() bool {
	return rs.prof != (Profile{})
}

// Reweighted derives the full (IDF-weighted) view of a count profile under
// the corpus's current statistics, into rs. For every representation the
// space weights by IDF, the derived weight of token i is count_i*idf_i with
// Sum and Norm accumulated in ascending token order by weighIDF, the
// arithmetic Profile uses, so the result is bit-identical to a profile
// built from scratch. Spaces without IDF weighting return src itself.
//
//autofj:hotpath
func (c *Corpus) Reweighted(src *Profile, rs *ReweightScratch) *Profile {
	if !c.reweight() {
		return src
	}
	rs.prof = *src
	for pi := 0; pi < numPre; pi++ {
		for ti := 0; ti < numTok; ti++ {
			if !c.needVec[pi][ti][weights.IDF] {
				continue
			}
			counts := &src.vecs[pi][ti][weights.Equal]
			buf := rs.w[pi][ti]
			if cap(buf) < len(counts.W) {
				buf = make([]float64, len(counts.W))
			}
			buf = buf[:len(counts.W)]
			sum, norm := weighIDF(buf, counts, c.stats[pi][ti])
			rs.w[pi][ti] = buf
			// The derived IDF vector must not be written through the shared
			// block pointer copied from src — that would race with concurrent
			// queries over the same reference row. Redirect this pair to a
			// scratch-owned block holding src's slots plus the derived vector.
			blk := &rs.blocks[pi][ti]
			*blk = *src.vecs[pi][ti]
			blk[weights.IDF] = distance.Sparse{
				Tokens: counts.Tokens,
				W:      buf,
				Sum:    sum,
				Norm:   math.Sqrt(norm),
			}
			rs.prof.vecs[pi][ti] = blk
		}
	}
	return &rs.prof
}
