package core

import (
	"errors"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
)

// JoinTables runs single-column Auto-FuzzyJoin (Algorithm 1) on the
// reference table left and query table right, returning the selected
// program and the induced many-to-one join.
func JoinTables(left, right []string, opt Options) (*Result, error) {
	return joinTables(left, right, opt, nil)
}

// Learn runs JoinTables and compiles the learned program over left, as
// res.ToProgram().Compile(left, opt) would, into the same table. The table
// is built from what the search already made over left (see learnedL)
// instead of from scratch. An empty left or right learns nothing and
// compiles the empty program the usual way.
func Learn(left, right []string, opt Options) (*Result, *Table, error) {
	var h learnedL
	res, err := joinTables(left, right, opt, &h)
	if err != nil {
		return nil, nil, err
	}
	prog := res.ToProgram()
	var m *Table
	if h.index == nil {
		m, err = prog.Compile(left, opt)
	} else {
		m, err = prog.newTable(1, opt, func(s *rowStore) error { return s.build(oneCellRows(left), &h, opt.Parallelism) })
	}
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// learnedL is what a single-column search builds over its reference table
// L that a table over the same L would build again: the table's blocking
// keys are L's records (DisplayRow of a one-cell row), its negative-rule
// word sets are negrule.AppendWordSet of the same keys, and its rows
// start from L's processed strings. The program's functions come from
// the searched space, so the search processed L under every option the
// table needs. Only strings and the index are kept, not the learn rows:
// the table recounts and re-embeds from the strings.
type learnedL struct {
	index *blocking.TableIndex // Block's index over L
	words [][]string           // negrule.WordSets(L); nil when no rule was learned
	proc  []textproc.Forms     // L's processed strings, from L's learn rows
}

// joinTables is JoinTables. When keep is not nil it receives what the
// search built over left (see learnedL).
func joinTables(left, right []string, opt Options, keep *learnedL) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(left) == 0 || len(right) == 0 {
		return &Result{}, nil
	}

	// Algorithm 1 lines 1-2: blocking, then negative rules that veto L-R
	// candidates, while the records' representations are built beside
	// them (they need no candidates).
	var b blocked
	var learned *config.ProfileArena
	var blockingTime, profileTime time.Duration
	beside(opt.Parallelism, func() {
		tProf := time.Now()
		learned = config.LearnProfiles(opt.Space, opt.Parallelism, left, right)
		profileTime = time.Since(tProf)
	}, func() {
		tBlock := time.Now()
		b = blockCandidates(left, right, opt, !opt.DisableNegativeRules)
		blockingTime = time.Since(tBlock)
	})
	lrCand, llCand, rules := b.lrCand, b.llCand, b.rules

	// Lines 3-4: distances and precision pre-computation, then the greedy
	// union search — all inside run().
	if keep != nil {
		keep.index = b.index
		if rules != nil && rules.Len() > 0 {
			keep.words = b.leftWords
		}
		keep.proc = make([]textproc.Forms, len(left))
		for i := range keep.proc {
			keep.proc[i] = learned.Processed(i)
		}
	}

	in := &engineInput{
		space:   opt.Space,
		steps:   opt.ThresholdSteps,
		nL:      len(left),
		nR:      len(right),
		lrCand:  lrCand,
		llCand:  llCand,
		newEval: idPairs(opt.Space, learned, len(left), lrCand, llCand),
	}
	res := run(in, opt)
	res.NegativeRules = rules
	res.BlockingBeta = opt.BlockingBeta
	res.Timing.Blocking = blockingTime
	res.Timing.Profile = profileTime
	return res, nil
}

// beside runs build on a goroutine of its own while work runs on the
// caller's, and returns when both are done; at parallelism 1 it starts no
// goroutine and runs work, then build.
func beside(parallelism int, build, work func()) {
	if parallel.Resolve(parallelism) <= 1 {
		work()
		build()
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		build()
	}()
	work()
	<-done
}

// idPairs gives engineInput.newEval over learn rows: every record is
// stored once as a row of the arena a (config.LearnProfiles, under a
// vocabulary closed over left ∪ right), right record r as row rOff+r (a
// self-join passes 0: its records play both sides), and pairs are scored
// by Evaluator.RowDistances against the row a run of them shares,
// prepared once: the right record of phase 1 (the r side), the center of
// phase 3 (the l side, for the groups the center's functions read).
func idPairs(space []config.JoinFunction, a *config.ProfileArena, rOff int, lrCand, llCand [][]int32) func() pairEval {
	v, rows := a.Vocab(), a.Rows()
	ev := config.NewEvaluator(space)
	return func() pairEval {
		sc := ev.NewScratch()
		var side config.Side
		var f config.Fixed
		// The row f holds, its orientation and the groups it was prepared for.
		cur, curL, curMask := -1, false, config.GroupMask(0)
		// Learning bounds char groups only: few of its set groups are
		// provably past their cuts, so it keeps no run sums.
		var c config.Cut
		bound := func(cut []float64) *config.Cut {
			if cut == nil {
				return nil
			}
			c.D = cut
			return &c
		}
		prepare := func(i int, l bool, mask config.GroupMask) *config.Fixed {
			if i != cur || l != curL || mask != curMask {
				side.Release()
				f = v.PrepareRow(&side, rows, i, mask, l)
				cur, curL, curMask = i, l, mask
			}
			return &f
		}
		return pairEval{
			lr: func(r, ci int, cut, out []float64) {
				ev.RowDistances(prepare(rOff+r, false, config.AllGroups), rows, int(lrCand[r][ci]), config.AllGroups, bound(cut), sc, out)
			},
			ll: func(l, ci int, need config.GroupMask, cut, out []float64) {
				ev.RowDistances(prepare(l, true, need), rows, int(llCand[l][ci]), need, bound(cut), sc, out)
			},
			mask: func(fns []fnCenter) config.GroupMask {
				var m config.GroupMask
				for _, fc := range fns {
					m |= ev.Group(int(fc.fi))
				}
				return m
			},
		}
	}
}

// blockCandidates runs Algorithm 1 lines 1–2 on blocking keys: top-k
// blocking for the L–R and L–L pairs (Block; right may be nil for a
// self-join) and, when learnRules is set, negative rules learned from the
// L–L pairs (Algorithm 2) that then veto L–R candidates through the same
// Frozen.BlocksPair scan a serving table runs. Each record's word set is
// computed once, R's only when a rule was learned.
func blockCandidates(left, right []string, opt Options, learnRules bool) blocked {
	blk := blocking.Block(left, right, opt.BlockingBeta, opt.Parallelism)
	llCand := make([][]int32, len(left))
	for i, cands := range blk.LL {
		ids := make([]int32, len(cands))
		for ci, c := range cands {
			ids[ci] = c.ID
		}
		llCand[i] = ids
	}
	var rules *negrule.Set
	var veto *negrule.Frozen
	var leftWords, rightWords [][]string
	if learnRules {
		leftWords = negrule.WordSets(left, opt.Parallelism)
		rules = negrule.NewSet()
		for i, cands := range blk.LL {
			for _, c := range cands {
				rules.LearnPair(leftWords[i], leftWords[c.ID])
			}
		}
		if rules.Len() > 0 {
			veto = rules.Freeze(nil, opt.Parallelism)
			rightWords = negrule.WordSets(right, opt.Parallelism)
		}
	}
	lrCand := make([][]int32, len(right))
	for j, cands := range blk.LR {
		ids := make([]int32, 0, len(cands))
		for _, c := range cands {
			if veto != nil && veto.BlocksPair(leftWords[c.ID], rightWords[j]) {
				continue
			}
			ids = append(ids, c.ID)
		}
		lrCand[j] = ids
	}
	return blocked{lrCand: lrCand, llCand: llCand, rules: rules, index: blk.Index, leftWords: leftWords}
}

// blocked is what blockCandidates builds: the L–R and L–L candidate ids,
// the negative rules learned (nil when rules were not asked for), Block's
// index over L, and L's word sets (nil when rules were not asked for).
type blocked struct {
	lrCand, llCand [][]int32
	rules          *negrule.Set
	index          *blocking.TableIndex
	leftWords      [][]string
}

// errColumnShape is returned when multi-column inputs are ragged.
var errColumnShape = errors.New("core: all columns of a table must have the same length")
