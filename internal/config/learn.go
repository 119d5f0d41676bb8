package config

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
)

// LearnProfiles builds the id-space view of every record of the given
// collections (views[k][i] is collections[k][i]) under one vocabulary
// closed over all of them — the IDF statistics of a Learn count every
// record of L and R. Each record is counted once per representation
// pair and derived once, so Evaluator.IDDistances on two views is
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
// vocabulary, so no vector carries Extra and either view of a pair may
// take the reference side.
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
			lay.procEmb(recs[i], emb[i*stride:(i+1)*stride], &views[i])
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
// ranks the closed vocabulary and derives every record's vectors with
// weighRun, the arithmetic Derive runs on a table row.
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

	n := len(slots)
	ids := make([]int32, n)
	var w [numWt][]float64
	for wi := range w {
		if need[wi] {
			w[wi] = make([]float64, n)
		}
	}
	for i := range views {
		lo, hi := off[i], off[i+1]
		var wr [numWt][]float64
		for wi := range w {
			if need[wi] {
				wr[wi] = w[wi][lo:hi:hi]
			}
		}
		v.weighRun(r, slots[lo:hi], counts[lo:hi], sums[2*i], sums[2*i+1], ids[lo:hi:hi], &wr, &views[i].vec[rep.Pre][rep.Tok])
	}
}
