package config

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

const (
	numPre = 4
	numTok = 2
	numWt  = 2
)

// Corpus holds per-(pre-processing, tokenization) IDF statistics computed
// over the records of some collections, plus which representations the
// configured space needs. Record Profiles are derived from it.
type Corpus struct {
	stats    [numPre][numTok]*weights.Stats
	needVec  [numPre][numTok][numWt]bool
	needEmb  [numPre]bool
	needProc [numPre]bool
}

// newCorpusNeeds records which representations space needs, with no
// statistics yet.
func newCorpusNeeds(space []JoinFunction) *Corpus {
	c := &Corpus{}
	for _, f := range space {
		c.needProc[f.Pre] = true
		switch f.Dist.Class() {
		case SetBased:
			c.needVec[f.Pre][f.Tok][f.Weight] = true
		case EmbeddingBased:
			c.needEmb[f.Pre] = true
		}
	}
	return c
}

// NewCorpus computes the corpus statistics required by space over the given
// record collections (typically L and R), for the string-keyed Profiles
// that Evaluator.Distances scores. With no collections the statistics are
// empty. Learning (LearnProfiles) and a mutable table store their rows
// and statistics in a Vocab instead.
func NewCorpus(space []JoinFunction, collections ...[]string) *Corpus {
	c := newCorpusNeeds(space)
	// IDF stats are needed for every (pre, tok) that has an IDF vector.
	for p := 0; p < numPre; p++ {
		for t := 0; t < numTok; t++ {
			if !c.needVec[p][t][weights.IDF] {
				continue
			}
			var docs [][]string
			pre := textproc.Option(p)
			tok := tokenize.Option(t)
			for _, coll := range collections {
				for _, s := range coll {
					docs = append(docs, tok.Tokens(pre.Apply(s)))
				}
			}
			c.stats[p][t] = weights.NewStats(docs)
		}
	}
	return c
}

// Stats exposes the IDF table for a (pre, tok) pair; nil when the space
// does not use IDF weighting for that pair.
func (c *Corpus) Stats(pre textproc.Option, tok tokenize.Option) *weights.Stats {
	return c.stats[pre][tok]
}

// VecBlock is the weighted-vector storage of one (pre-processing,
// tokenization) representation pair: one Sparse per weighting scheme.
type VecBlock [numWt]distance.Sparse

// Profile is the pre-computed multi-representation view of one record:
// its pre-processed strings, weighted token sets, and embeddings, for every
// representation the space requires.
//
// The vector and embedding storage lives behind pointers allocated only
// for the representations the space actually uses: inlined, the full
// [numPre][numTok][numWt] vector block plus embeddings is over 3KB per
// record, of which a typical space touches a small fraction. Code that
// indexes vecs/emb directly (the distance kernels)
// runs only for representations the profile was built with, so those
// reads never see nil. Neither learning nor a serving table keeps a
// Profile: both store a record as a row of id runs over a Vocab
// (LearnProfiles, Vocab.AppendChunk), scored straight from the runs.
// Full Profiles are the string reference path that the tests hold the id
// path to.
type Profile struct {
	Raw  string
	proc [numPre]string
	vecs [numPre][numTok]*VecBlock
	emb  *[numPre]embed.Vector
}

// ensureVec allocates the vector block of one representation pair on
// first use.
func (p *Profile) ensureVec(pi, ti int) *VecBlock {
	if p.vecs[pi][ti] == nil {
		p.vecs[pi][ti] = new(VecBlock)
	}
	return p.vecs[pi][ti]
}

// ensureEmb allocates the embedding block on first use.
func (p *Profile) ensureEmb() *[numPre]embed.Vector {
	if p.emb == nil {
		p.emb = new([numPre]embed.Vector)
	}
	return p.emb
}

// Profile builds the representation bundle for one record: its count
// profile (one tokenize-and-sort pass per representation pair), with the
// IDF vectors then derived from the counts under the corpus statistics.
func (c *Corpus) Profile(s string) *Profile {
	p := c.CountProfile(s)
	c.weigh(p)
	return p
}

// weigh turns a freshly built count profile into the full profile in
// place: every IDF vector the space needs is derived from its count vector
// (sharing its token list), and count vectors the space does not use at
// equal weighting are dropped.
func (c *Corpus) weigh(p *Profile) {
	for pi := 0; pi < numPre; pi++ {
		for ti := 0; ti < numTok; ti++ {
			if !c.needVec[pi][ti][weights.IDF] {
				continue
			}
			vb := p.vecs[pi][ti]
			vb[weights.IDF] = idfVec(&vb[weights.Equal], c.stats[pi][ti])
			if !c.needVec[pi][ti][weights.Equal] {
				vb[weights.Equal] = distance.Sparse{}
			}
		}
	}
}

// Profiles builds profiles for a whole record collection, sharding the
// records across up to parallelism workers (0 means GOMAXPROCS, 1 forces
// sequential). Records are independent, so every parallelism level
// produces identical profiles.
func (c *Corpus) Profiles(records []string, parallelism int) []*Profile {
	return c.buildAll(records, parallelism, c.Profile)
}

// buildAll maps build over records on up to parallelism workers.
func (c *Corpus) buildAll(records []string, parallelism int, build func(string) *Profile) []*Profile {
	out := make([]*Profile, len(records))
	parallel.Shard(len(records), parallel.Workers(parallelism, len(records)), func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = build(records[i])
		}
	})
	return out
}

// Processed returns the record's pre-processed string under pre.
func (p *Profile) Processed(pre textproc.Option) string { return p.proc[pre] }

// Distance evaluates the join function on a (left, right) profile pair.
// Directional distances (ID and the Contain-* family) treat l as the
// reference-side record and r as the query-side record, per §2.2.
//
// This is the one-function-at-a-time compatibility path; code that needs
// many functions on the same pair should use an Evaluator, which shares
// the per-representation kernel work and produces bit-identical values.
func (f JoinFunction) Distance(l, r *Profile) float64 {
	switch f.Dist {
	case ED:
		return distance.EditDistance(l.proc[f.Pre], r.proc[f.Pre])
	case JW:
		return distance.JaroWinklerDistance(l.proc[f.Pre], r.proc[f.Pre])
	case ME:
		return distance.MongeElkan(l.proc[f.Pre], r.proc[f.Pre])
	case SW:
		return distance.SmithWaterman(l.proc[f.Pre], r.proc[f.Pre])
	case GED:
		return embed.CosineDistance(l.emb[f.Pre], r.emb[f.Pre])
	}
	a := l.vecs[f.Pre][f.Tok][f.Weight]
	b := r.vecs[f.Pre][f.Tok][f.Weight]
	switch f.Dist {
	case JD:
		return distance.Jaccard(a, b)
	case CD:
		return distance.Cosine(a, b)
	case DD:
		return distance.Dice(a, b)
	case MD:
		return distance.MaxInclusion(a, b)
	case ID:
		return distance.Inclusion(a, b)
	case CJD:
		return distance.ContainJaccard(a, b)
	case CCD:
		return distance.ContainCosine(a, b)
	case CDD:
		return distance.ContainDice(a, b)
	}
	return 1
}
