package config

import (
	"math"
	"sort"
	"strings"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// ProfileArena is the columnar (structure-of-arrays) form of a reference
// table's profiles: where []*Profile scatters every record's processed
// strings, sparse vectors, and embeddings across per-record heap objects,
// the arena packs each representation into one contiguous block shared by
// all records —
//
//   - processed strings: one blob per pre-processing pipeline, with an
//     n+1 offset array, plus the pre-converted rune views (the char
//     kernels never re-decode UTF-8 at query time);
//   - sparse vectors: every distinct token of the table is interned into
//     a dense int32 id assigned in ascending lexical order, so records
//     store CSR-style id runs (one shared id list per (pre, tok) pair,
//     one aligned weight block per weighting scheme) and the set kernels
//     merge int32 ids instead of strings — same matched pairs in the
//     same order, so distances stay bit-identical;
//   - embeddings: one flat n×Dim float64 block with stride-1 dot
//     products.
//
// An arena is immutable after BuildArena and safe for concurrent use.
type ProfileArena struct {
	n        int
	needProc [numPre]bool
	needEmb  [numPre]bool
	pre      [numPre]arenaPre
	rep      [numPre][numTok]*arenaRep
}

// arenaPre holds the per-pre-processing blocks: processed-string blob,
// rune views, and flat embeddings.
type arenaPre struct {
	procOff  []int32 // n+1 offsets into procBlob
	procBlob string
	runeOff  []int32 // n+1 offsets into runes
	runes    []rune
	emb      []float64 // n*embed.Dim, nil unless the space embeds this pre
}

// arenaRep holds one (pre, tok) representation: the interned vocabulary
// and the CSR token-id/weight blocks.
type arenaRep struct {
	vocab  []string         // distinct table tokens, ascending; index == id
	tokID  map[string]int32 // token -> id (lex rank)
	idsOff []int32          // n+1 offsets into ids
	ids    []int32          // per-record ascending token ids (shared by all schemes)
	need   [numWt]bool
	w      [numWt][]float64 // weight per id, aligned to ids
	sum    [numWt][]float64 // per-record weight sum
	norm   [numWt][]float64 // per-record sqrt weight square sum
}

// Len returns the number of records in the arena.
func (a *ProfileArena) Len() int { return a.n }

// setVec returns the reference-side IDVec of one record under one
// representation. The record is fully in-vocabulary by construction, so
// N is the id-run length and Extra is false.
//
//autofj:hotpath
func (a *ProfileArena) setVec(rep *arenaRep, wi int, rec int32) distance.IDVec {
	lo, hi := rep.idsOff[rec], rep.idsOff[rec+1]
	return distance.IDVec{
		IDs:  rep.ids[lo:hi],
		W:    rep.w[wi][lo:hi],
		Sum:  rep.sum[wi][rec],
		Norm: rep.norm[wi][rec],
		N:    hi - lo,
	}
}

// BuildArena flattens the corpus profiles of one record collection into
// columnar form. profs must have been built by c.Profile/Profiles — the
// arena stores exactly the representations the corpus needs, and the
// values are copied verbatim, so arena-kernel distances reproduce the
// pointer-profile kernels bit for bit. The pointer profiles can be
// dropped afterwards.
func (c *Corpus) BuildArena(profs []*Profile) *ProfileArena {
	a := &ProfileArena{n: len(profs), needProc: c.needProc, needEmb: c.needEmb}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		p := &a.pre[pi]
		p.procOff = make([]int32, len(profs)+1)
		p.runeOff = make([]int32, len(profs)+1)
		var blob strings.Builder
		for i, pr := range profs {
			blob.WriteString(pr.proc[pi])
			p.procOff[i+1] = int32(blob.Len())
			for _, r := range pr.proc[pi] {
				p.runes = append(p.runes, r)
			}
			p.runeOff[i+1] = int32(len(p.runes))
		}
		p.procBlob = blob.String()
		if c.needEmb[pi] {
			p.emb = make([]float64, len(profs)*embed.Dim)
			for i, pr := range profs {
				copy(p.emb[i*embed.Dim:(i+1)*embed.Dim], pr.emb[pi][:])
			}
		}
		for ti := 0; ti < numTok; ti++ {
			firstWt := -1
			var need [numWt]bool
			for wi := 0; wi < numWt; wi++ {
				if c.needVec[pi][ti][wi] {
					need[wi] = true
					if firstWt < 0 {
						firstWt = wi
					}
				}
			}
			if firstWt < 0 {
				continue
			}
			a.rep[pi][ti] = buildArenaRep(profs, pi, ti, firstWt, need)
		}
	}
	return a
}

// buildArenaRep interns one (pre, tok) representation. The token sets of
// a record are identical across weighting schemes (every scheme weights
// the same distinct tokens, and all weights are > 0), so the id runs are
// stored once and only the weight blocks are per-scheme.
func buildArenaRep(profs []*Profile, pi, ti, firstWt int, need [numWt]bool) *arenaRep {
	rep := &arenaRep{need: need, tokID: make(map[string]int32)}
	total := 0
	for _, pr := range profs {
		toks := pr.vecs[pi][ti][firstWt].Tokens
		total += len(toks)
		for _, t := range toks {
			rep.tokID[t] = 0
		}
	}
	rep.vocab = make([]string, 0, len(rep.tokID))
	for t := range rep.tokID {
		rep.vocab = append(rep.vocab, t)
	}
	sort.Strings(rep.vocab)
	for id, t := range rep.vocab {
		rep.tokID[t] = int32(id)
	}
	rep.idsOff = make([]int32, len(profs)+1)
	rep.ids = make([]int32, 0, total)
	for wi := 0; wi < numWt; wi++ {
		if !need[wi] {
			continue
		}
		rep.w[wi] = make([]float64, 0, total)
		rep.sum[wi] = make([]float64, len(profs))
		rep.norm[wi] = make([]float64, len(profs))
	}
	for i, pr := range profs {
		vb := pr.vecs[pi][ti]
		for _, t := range (*vb)[firstWt].Tokens {
			// Sparse tokens are sorted ascending and ids follow lexical
			// rank, so the id run is ascending with no explicit sort.
			rep.ids = append(rep.ids, rep.tokID[t])
		}
		rep.idsOff[i+1] = int32(len(rep.ids))
		for wi := 0; wi < numWt; wi++ {
			if !need[wi] {
				continue
			}
			sp := (*vb)[wi]
			rep.w[wi] = append(rep.w[wi], sp.W...)
			rep.sum[wi][i] = sp.Sum
			rep.norm[wi][i] = sp.Norm
		}
	}
	return rep
}

// QueryProfile is the columnar counterpart of a query-side Profile:
// processed strings with pre-converted rune views, embeddings, and
// id-space sparse vectors against one arena's interned vocabulary.
// Query tokens outside the table vocabulary carry no id (they can match
// nothing) but still count toward Sum/Norm/N and set the Extra flag, so
// the id kernels reproduce the string kernels exactly.
//
// A QueryProfile is immutable after ArenaQuery and safe for concurrent
// use.
type QueryProfile struct {
	proc  [numPre]string
	runes [numPre][]rune
	emb   [numPre]embed.Vector
	vec   [numPre][numTok][numWt]distance.IDVec
}

// ArenaQuery builds the columnar query profile of one record against the
// arena's vocabulary. This is the cache-fill edge of the serving path:
// it allocates freely (tokenization, sorting, vector blocks), and the
// steady state reuses the returned profile without touching it.
//
// The weighted vectors replicate weights.Scheme.Vector + NewSparse
// arithmetic exactly: occurrence counts accumulate as exact float64
// integers, IDF multiplies once per distinct token, and Sum/Norm
// accumulate in ascending token order over ALL distinct tokens
// (in-vocabulary and not), with the square root taken last.
func (c *Corpus) ArenaQuery(a *ProfileArena, s string) *QueryProfile {
	q := &QueryProfile{}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		pre := textproc.Option(pi)
		q.proc[pi] = pre.Apply(s)
		q.runes[pi] = []rune(q.proc[pi])
		if c.needEmb[pi] {
			q.emb[pi] = embed.Embed(q.proc[pi])
		}
		for ti := 0; ti < numTok; ti++ {
			rep := a.rep[pi][ti]
			if rep == nil {
				continue
			}
			toks := tokenize.Option(ti).Tokens(q.proc[pi])
			sort.Strings(toks)
			buildQueryVecs(rep.need, toks, arenaVocab{rep, c.stats[pi][ti]}, &q.vec[pi][ti])
		}
	}
	return q
}

// arenaVocab resolves query tokens against an arena's interned
// vocabulary, weighing them by the corpus statistics.
type arenaVocab struct {
	rep   *arenaRep
	stats *weights.Stats
}

func (a arenaVocab) lookup(tok string, idf bool) (id int32, w float64, known bool) {
	id, known = a.rep.tokID[tok]
	w = 1
	if idf && a.stats != nil {
		w = a.stats.IDF(tok)
	}
	return id, w, known
}

// queryVocab resolves the tokens of a query against a reference
// vocabulary: lookup returns the token's id and whether the vocabulary
// holds it, and, when idf is set, its IDF weight.
type queryVocab interface {
	lookup(tok string, idf bool) (id int32, w float64, known bool)
}

// buildQueryVecs fills one (pre, tok) group of query vectors from the
// sorted token occurrence list. A token the vocabulary does not hold
// carries no id, so it can match nothing, but it still counts toward
// Sum, Norm and N and sets Extra, so the id kernels reproduce the string
// kernels exactly.
func buildQueryVecs(need [numWt]bool, toks []string, qv queryVocab, out *[numWt]distance.IDVec) {
	// len(toks) bounds the distinct tokens: one block per element type.
	ids := make([]int32, 0, len(toks))
	var w [numWt][]float64
	nw := 0
	for _, ok := range need {
		if ok {
			nw++
		}
	}
	wbuf := make([]float64, nw*len(toks))
	for wi := range w {
		if need[wi] {
			w[wi], wbuf = wbuf[:0:len(toks)], wbuf[len(toks):]
		}
	}
	var sum, norm [numWt]float64
	var n int32
	extra := false
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		// A token occurring k times gets map weight k via k additions of
		// 1.0 — exact integers, so float64(k) is the identical value.
		count := float64(j - i)
		n++
		id, idf, known := qv.lookup(toks[i], need[weights.IDF])
		if !known {
			extra = true
		}
		for wi := 0; wi < numWt; wi++ {
			if !need[wi] {
				continue
			}
			wv := count
			if weights.Scheme(wi) == weights.IDF {
				wv = count * idf
			}
			if known {
				w[wi] = append(w[wi], wv)
			}
			sum[wi] += wv
			norm[wi] += wv * wv
		}
		if known {
			ids = append(ids, id)
		}
		i = j
	}
	for wi := 0; wi < numWt; wi++ {
		if !need[wi] {
			continue
		}
		out[wi] = distance.IDVec{
			IDs:   ids,
			W:     w[wi],
			Sum:   sum[wi],
			Norm:  math.Sqrt(norm[wi]),
			N:     n,
			Extra: extra,
		}
	}
}
