package config

import (
	"math"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// IDProfile is the learn view of one record (LearnProfiles): its strings
// and embeddings, and per set representation and weighting its tokens as
// lexical ranks in the learn vocabulary, with their weights.
type IDProfile struct {
	Record
	vec [numPre][numTok][numWt]viewVec
}

// viewVec is one weighted token set of a learn view: distinct token ranks
// ascending, their weights, the Sum and Norm, and the vocabulary's size.
type viewVec struct {
	ids       []int32
	w         []float64
	sum, norm float64
	ranks     int32
}

// LearnProfiles builds the id-space view of every record of the given
// collections (views[k][i] is collections[k][i]) under one vocabulary
// closed over all of them — the IDF statistics of a Learn count every
// record of L and R. Each record is counted once per representation
// pair and derived once, so Evaluator.ViewDistances on two views is
// bit-identical to Evaluator.Distances on the Profiles that NewCorpus
// over the same collections gives the two records.
//
// Processed strings and embeddings are built per record; each counted
// representation's vocabulary is independent of the others, so
// tokenizing, interning, ranking and deriving are sharded by
// representation. Both phases run on up to parallelism workers (0 means
// GOMAXPROCS, 1 forces sequential) and every level gives identical views.
// A view's set vectors live in one exact-sized id and weight buffer per
// representation, and its embeddings in one flat buffer; the vocabulary
// and the token strings are dropped. Every token of every view is in the
// vocabulary, so either view of a pair may take the reference side.
func LearnProfiles(space []JoinFunction, parallelism int, collections ...[]string) [][]IDProfile {
	var recs []string
	for _, coll := range collections {
		recs = append(recs, coll...)
	}
	v := NewVocab(space)
	lay := v.lay
	views := make([]IDProfile, len(recs))
	stride := lay.nemb * embed.Dim
	emb := make([]float64, len(recs)*stride)
	parallel.Shard(len(recs), parallel.Workers(parallelism, len(recs)), func(_, start, end int) {
		for i := start; i < end; i++ {
			lay.procEmb(recs[i], emb[i*stride:(i+1)*stride], &views[i].Record)
		}
	})
	v.docs = len(recs)
	v.idf.SetDocs(v.docs)
	parallel.Shard(len(lay.reps), parallel.Workers(parallelism, len(lay.reps)), func(_, start, end int) {
		for r := start; r < end; r++ {
			v.learnRep(r, views)
		}
	})
	out := make([][]IDProfile, len(collections))
	for k, coll := range collections {
		out[k], views = views[:len(coll):len(coll)], views[len(coll):]
	}
	return out
}

// learnRep builds representation r of every view. It counts each
// record's processed string in integers (tokenRun.count: packed 3-gram
// keys or word substrings, sorted and run-length encoded) and interns the
// distinct tokens in record order, counting each into the df; then it
// orders and weighs the closed vocabulary, as Settle does a table's, and
// weighs every record's counts with PrepareRow's arithmetic.
func (v *Vocab) learnRep(r int, views []IDProfile) {
	rep := v.lay.reps[r]
	need := &v.lay.need[rep.Pre][rep.Tok]
	rv := &v.reps[r]
	var slots []int32
	var counts []uint32
	off := make([]int32, len(views)+1)
	sums := make([]float64, 2*len(views)) // each count vector's Sum and Norm
	var run tokenRun
	for i := range views {
		run.count(rep.Tok, views[i].proc[rep.Pre])
		for k := range run.counts {
			sl := v.intern(r, &run, k)
			rv.df[sl]++
			slots = append(slots, sl)
		}
		counts = append(counts, run.counts...)
		off[i+1] = int32(len(slots))
		sums[2*i], sums[2*i+1] = run.sum, run.norm
	}
	rv.rerank()
	v.weighSlots(r)
	rank := make([]int32, len(rv.order))
	for k, sl := range rv.order {
		rank[sl] = int32(k)
	}
	ids := make([]int32, len(slots))
	for k, sl := range slots {
		ids[k] = rank[sl]
	}
	for wi := range need {
		if !need[wi] {
			continue
		}
		w := make([]float64, len(slots))
		for i := range views {
			lo, hi := off[i], off[i+1]
			sum, norm := sums[2*i], sums[2*i+1]
			if wi == int(weights.IDF) {
				sum, norm = 0, 0
				for k := lo; k < hi; k++ {
					w[k] = float64(counts[k]) * rv.sw[slots[k]]
					sum += w[k]
					norm += w[k] * w[k]
				}
				norm = math.Sqrt(norm)
			} else {
				for k := lo; k < hi; k++ {
					w[k] = float64(counts[k])
				}
			}
			views[i].vec[rep.Pre][rep.Tok][wi] = viewVec{ids: ids[lo:hi:hi], w: w[lo:hi:hi], sum: sum, norm: norm, ranks: int32(len(rank))}
		}
	}
}

// PrepareView prepares learn view x into sd, as the reference side l of
// every pair when l is set and as the r side otherwise, against other
// views of the same LearnProfiles call. Every representation x holds is
// prepared, whatever groups are scored.
//
//autofj:hotpath
func (sd *Side) PrepareView(x *IDProfile, l bool) Fixed {
	for pi := range x.vec {
		for ti := range x.vec[pi] {
			for wi := range x.vec[pi][ti] {
				if vec := &x.vec[pi][ti][wi]; vec.ranks > 0 {
					sd.held[pi][ti] = append(sd.held[pi][ti][:0], vec.ids...)
					p := sized(&sd.set[pi][ti][wi], int(vec.ranks))
					for k, id := range vec.ids {
						p.W[id] = vec.w[k]
					}
					p.Sum, p.Norm, p.N = vec.sum, vec.norm, int32(len(vec.ids))
				}
			}
		}
	}
	return Fixed{rec: x.Record, side: sd, l: l}
}
