package config

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
)

// ProfileArena is one record collection stored the way a serving table
// stores its rows, by the same row builder: a Vocab holding the
// collection's token statistics and a Rows block of integer slot runs
// into it. It is the store a Learn scores (LearnProfiles: L's rows, then
// R's, under one vocabulary closed over both) and the one BuildArena
// makes from string Profiles. Evaluator.RowDistances scores a stored
// record against a prepared side, the path core.Table serves with.
//
// An arena is immutable once built and safe for concurrent use.
type ProfileArena struct {
	v    *Vocab
	rows Rows
}

// Len returns the number of records in the arena.
func (a *ProfileArena) Len() int { return a.rows.Len() }

// Vocab returns the vocabulary the arena's rows index.
func (a *ProfileArena) Vocab() *Vocab { return a.v }

// Rows returns the arena's rows, in the order their records were given.
func (a *ProfileArena) Rows() *Rows { return &a.rows }

// Processed returns the processed strings of record i.
func (a *ProfileArena) Processed(i int) textproc.Forms { return a.rows.record(i).proc }

// LearnProfiles stores the records a Learn scores, collections[0] (L)
// then collections[1] (R), as the rows of one arena whose vocabulary is
// closed over all of them: the IDF statistics of a Learn count every
// record of L and R. A self-join passes L alone. Rows are built on up to
// parallelism workers (0 means GOMAXPROCS, 1 forces sequential) by the
// builder a table's rows use, and every level gives identical rows.
func LearnProfiles(space []JoinFunction, parallelism int, collections ...[]string) *ProfileArena {
	var recs []string
	for _, coll := range collections {
		recs = append(recs, coll...)
	}
	v := NewVocab(space)
	return v.buildArena(len(recs), parallelism, func(dst *Counted, i int) {
		v.CountRecord(dst, recs[i], nil)
	})
}

// BuildArena stores the records of profs, which c.Profile or c.Profiles
// built, in an arena. Each row is built from Profile.Raw by the table's
// row builder on GOMAXPROCS workers, so the pointer profiles can be
// dropped afterwards.
//
// The arena's IDF statistics follow its own rows, not c's. The two agree
// when c was built over the same collection, and then ArenaDistances
// reproduces Evaluator.Distances on profs bit for bit.
func (c *Corpus) BuildArena(profs []*Profile) *ProfileArena {
	v := newVocab(newLayout(c))
	return v.buildArena(len(profs), 0, func(dst *Counted, i int) {
		v.CountRecord(dst, profs[i].Raw, nil)
	})
}

// BuildChunk bounds the counted records a row build holds at once: they
// are scaffolding for the stored rows, reused chunk by chunk.
const BuildChunk = 256

// buildArena stores n records as the rows of a new arena of the empty v,
// in order: count fills dst with record i (see CountRecord) on up to
// parallelism workers, one chunk at a time, AppendChunk stores each chunk,
// and Settle closes the statistics.
func (v *Vocab) buildArena(n, parallelism int, count func(dst *Counted, i int)) *ProfileArena {
	a := &ProfileArena{v: v, rows: v.NewRows(n)}
	recs := make([]Counted, min(n, BuildChunk))
	var slots []int32
	for lo := 0; lo < n; lo += BuildChunk {
		chunk := recs[:min(n-lo, BuildChunk)]
		parallel.Shard(len(chunk), parallel.Workers(parallelism, len(chunk)), func(start, end int) {
			for i := start; i < end; i++ {
				count(&chunk[i], lo+i)
			}
		})
		v.AppendChunk(&a.rows, chunk, &slots, parallelism)
	}
	v.Settle()
	return a
}

// Reserve makes room for tokens more slot entries and counted more counts
// (those of runs not all ones), those of the next rows rows. Each array
// of storage made for a build of known size (NewRows' n rows) is sized
// once, for the whole build: when it must grow before the build's last
// rows, to the entries per row stored so far (these rows included) times
// the build's rows, with 1/32 head room, and at least 1/16 more than it
// holds, so a build whose later rows run longer still regrows a bounded
// number of times; for the build's last rows, to what they need. Past the
// build's size (a table's delta rows), storage at least doubles, so rows
// appended one chunk at a time are copied O(1) times.
func (s *Rows) Reserve(tokens, counted, rows int) {
	stored := s.n + rows
	if s.wide {
		s.slots32 = reserve(s.slots32, tokens, stored, s.want)
	} else {
		s.slots16 = reserve(s.slots16, tokens, stored, s.want)
	}
	s.counts = reserve(s.counts, counted, stored, s.want)
}

// reserve returns buf with room for more entries, grown as Reserve says
// for stored of want rows.
func reserve[T any](buf []T, more, stored, want int) []T {
	need := len(buf) + more
	if need <= cap(buf) {
		return buf
	}
	c := max(need, 2*cap(buf))
	if stored < want {
		est := int64(need+need/32) * int64(want) / int64(stored)
		c = max(need, int(est), cap(buf)+cap(buf)/16)
	} else if stored == want {
		c = need
	}
	// Not slices.Grow: append's growth rounding would overshoot c.
	return append(make([]T, 0, c), buf...)
}

// ArenaQuery prepares one record as the query side against the arena's
// vocabulary, in tables of its own (see Vocab.PrepareQuery).
func (c *Corpus) ArenaQuery(a *ProfileArena, s string) *Fixed {
	f := a.v.PrepareQuery(new(Side), s, nil, AllGroups)
	return &f
}

// ArenaDistances is RowDistances between record l of the arena and a
// query from ArenaQuery.
//
//autofj:hotpath
func (e *Evaluator) ArenaDistances(a *ProfileArena, l int32, q *Fixed, sc *EvalScratch, out []float64) {
	e.RowDistances(q, &a.rows, int(l), AllGroups, nil, sc, out)
}
