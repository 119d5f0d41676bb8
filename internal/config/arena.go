package config

import "github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"

// ProfileArena is one record collection stored the way a serving table
// stores its rows, by the same row builder: a Vocab holding the
// collection's token statistics and a Rows block of integer slot runs
// into it. Evaluator.ArenaDistances scores a stored record against a
// prepared query by Evaluator.RowDistances, the path core.Table serves
// with.
//
// An arena is immutable after BuildArena and safe for concurrent use.
type ProfileArena struct {
	v    *Vocab
	rows Rows
}

// Len returns the number of records in the arena.
func (a *ProfileArena) Len() int { return a.rows.Len() }

// BuildArena stores the records of profs, which c.Profile or c.Profiles
// built, in an arena. Each row is built from Profile.Raw by the table's
// row builder: records are counted (Vocab.CountRecord) on GOMAXPROCS
// workers one chunk at a time, then appended in order (AppendCounted), so
// the pointer profiles can be dropped afterwards.
//
// The arena's IDF statistics follow its own rows, not c's. The two agree
// when c was built over the same collection, and then ArenaDistances
// reproduces Evaluator.Distances on profs bit for bit.
func (c *Corpus) BuildArena(profs []*Profile) *ProfileArena {
	n := len(profs)
	v := newVocab(&Corpus{needVec: c.needVec, needEmb: c.needEmb, needProc: c.needProc})
	a := &ProfileArena{v: v, rows: v.NewRows(n, 0)}
	recs := make([]Counted, min(n, arenaChunk))
	for lo := 0; lo < n; lo += arenaChunk {
		hi := min(n, lo+arenaChunk)
		parallel.Shard(hi-lo, parallel.Workers(0, hi-lo), func(_, start, end int) {
			for i := start; i < end; i++ {
				v.CountRecord(&recs[i], profs[lo+i].Raw, nil)
			}
		})
		for i := range hi - lo {
			v.AppendCounted(&a.rows, &recs[i])
		}
	}
	v.Settle()
	return a
}

// arenaChunk bounds the counted records BuildArena holds at once.
const arenaChunk = 256

// ArenaQuery prepares one record as the query side against the arena's
// vocabulary, in tables of its own (see Vocab.PrepareQuery).
func (c *Corpus) ArenaQuery(a *ProfileArena, s string) *Fixed {
	f := a.v.PrepareQuery(new(Side), s, AllGroups)
	return &f
}

// ArenaDistances is RowDistances between record l of the arena and a
// query from ArenaQuery.
//
//autofj:hotpath
func (e *Evaluator) ArenaDistances(a *ProfileArena, l int32, q *Fixed, sc *EvalScratch, out []float64) {
	e.RowDistances(q, &a.rows, int(l), AllGroups, sc, out)
}
