package config

// ProfileArena is one record collection stored the way a serving table
// stores its rows: a Vocab holding the collection's token statistics and
// a Rows block of integer slot runs into it. Evaluator.ArenaDistances
// scores a stored record against a query profile by Vocab.Derive and
// Evaluator.IDDistances, the path core.Table serves with.
//
// An arena is immutable after BuildArena and safe for concurrent use.
type ProfileArena struct {
	v    *Vocab
	rows Rows
}

// Len returns the number of records in the arena.
func (a *ProfileArena) Len() int { return a.rows.Len() }

// BuildArena stores the records of profs, which c.Profile or c.Profiles
// built, in an arena. Their count profiles are rebuilt from each
// Profile.Raw (a full profile may have dropped its equal-weight vectors)
// on GOMAXPROCS workers, so the pointer profiles can be dropped
// afterwards.
//
// The arena's IDF statistics follow its own rows, not c's. The two agree
// when c was built over the same collection, and then ArenaDistances
// reproduces Evaluator.Distances on profs bit for bit.
func (c *Corpus) BuildArena(profs []*Profile) *ProfileArena {
	raws := make([]string, len(profs))
	for i, p := range profs {
		raws[i] = p.Raw
	}
	v := newVocab(&Corpus{needVec: c.needVec, needEmb: c.needEmb, needProc: c.needProc})
	a := &ProfileArena{v: v, rows: v.NewRows(len(raws), 0)}
	for _, p := range c.buildAll(raws, 0, c.CountProfile) {
		v.AppendProfile(&a.rows, p)
	}
	v.Settle()
	return a
}

// ArenaQuery builds the query profile of one record against the arena's
// vocabulary (see Vocab.Query).
func (c *Corpus) ArenaQuery(a *ProfileArena, s string) *IDProfile { return a.v.Query(s) }

// ArenaDistances is IDDistances between record l of the arena, derived
// into sc, and a query profile from ArenaQuery.
//
//autofj:hotpath
func (e *Evaluator) ArenaDistances(a *ProfileArena, l int32, q *IDProfile, sc *EvalScratch, out []float64) {
	var ref IDProfile
	a.v.Derive(&a.rows, int(l), &sc.derive, &ref)
	e.IDDistances(&ref, q, AllGroups, sc, out)
}
