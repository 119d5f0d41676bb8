package config

import "github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"

// ProfileArena is one record collection stored the way a serving table
// stores its rows, by the same row builder: a Vocab holding the
// collection's token statistics and a Rows block of integer slot runs
// into it. Evaluator.ArenaDistances scores a stored record against a
// query profile by Vocab.Derive and Evaluator.IDDistances, the path
// core.Table serves with.
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

// ArenaQuery builds the query profile of one record against the arena's
// vocabulary (see Vocab.Query).
func (c *Corpus) ArenaQuery(a *ProfileArena, s string) *IDProfile { return a.v.Query(s) }

// ArenaDistances is IDDistances between record l of the arena, derived
// into sc, and a query profile from ArenaQuery.
//
//autofj:hotpath
func (e *Evaluator) ArenaDistances(a *ProfileArena, l int32, q *IDProfile, sc *EvalScratch, out []float64) {
	var ref IDProfile
	a.v.Derive(&a.rows, int(l), AllGroups, &sc.derive, &ref)
	e.IDDistances(&ref, q, AllGroups, sc, out)
}
