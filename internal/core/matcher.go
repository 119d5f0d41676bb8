package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
)

// Match is the outcome of matching one query record against a compiled
// reference table.
type Match struct {
	// Left is the matched reference record index; -1 when unmatched.
	Left int
	// Distance is the distance under the configuration that matched.
	Distance float64
	// Precision is the unsupervised per-join precision estimate (Eq. 9):
	// 1 / (number of reference records in the 2θ-ball around Left).
	Precision float64
	// Config indexes the program's Configurations; -1 when unmatched.
	Config int
}

// noMatch is the canonical unmatched result.
func noMatch() Match { return Match{Left: -1, Config: -1} }

// Matcher is the serving handle Learn, Compile and CompileMultiColumn
// return: a Table built from the reference table's rows. The name keeps
// the learn-once / serve-many API of the library; every Table method
// (Match, MatchRow, MatchBatch, MatchRows, MatchStream, and the Add /
// Remove / Compact mutators) applies.
type Matcher = Table

var errNeedRow = errors.New("core: matcher was compiled from a multi-column program; use MatchRow or MatchRows")

// Compile builds a serving Matcher for a single-column program against
// the reference table left: a Table whose rows are left's records as
// one-cell rows (see NewTable). Preparation (blocking index, profiles,
// IDF statistics) happens once, sharded across opt.Parallelism workers;
// the same knob bounds MatchBatch fan-out. Programs learned by the
// multi-column search must use CompileMultiColumn.
func (p *Program) Compile(left []string, opt Options) (*Matcher, error) {
	if len(p.Columns) > 0 {
		return nil, errors.New("core: program was learned on multiple columns; use CompileMultiColumn")
	}
	return p.NewTable(1, oneCellRows(left), opt)
}

// oneCellRows views each record of left as a one-cell row.
func oneCellRows(left []string) [][]string {
	rows := make([][]string, len(left))
	for i := range left {
		rows[i] = left[i : i+1 : i+1] // NewTable copies every row
	}
	return rows
}

// CompileMultiColumn builds a serving Matcher for a multi-column program:
// leftCols are the full columns of the reference table (the stored column
// selection indexes into them), and queries arrive as full rows via
// MatchRow/MatchRows. A program whose search selected no columns compiles
// into a handle of the same row width that never matches.
func (p *Program) CompileMultiColumn(leftCols [][]string, opt Options) (*Matcher, error) {
	if len(p.Columns) != len(p.Weights) ||
		(len(p.Columns) == 0 && len(p.Configurations) > 0) {
		return nil, errors.New("core: program has no multi-column weights; use Compile")
	}
	if len(leftCols) == 0 {
		return nil, errColumnShape
	}
	nL := len(leftCols[0])
	for _, col := range leftCols {
		if len(col) != nL {
			return nil, errColumnShape
		}
	}
	for _, c := range p.Columns {
		if c < 0 || c >= len(leftCols) {
			return nil, fmt.Errorf("core: program column %d out of range", c)
		}
	}
	return p.NewTable(len(leftCols), columnRows(leftCols), opt)
}

// columnRows transposes equal-length columns into rows.
func columnRows(cols [][]string) [][]string {
	rows := make([][]string, len(cols[0]))
	cells := make([]string, len(rows)*len(cols))
	for i := range rows {
		row := cells[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, col := range cols {
			row[j] = col[i]
		}
		rows[i] = row
	}
	return rows
}

// queryState is the transient miss-path state of one query: everything
// about it that does not depend on which candidate it is scored against.
// It is built per cache miss and dropped once the Match is computed.
type queryState struct {
	// cands lists the surviving candidates — blocking top-k minus
	// negative-rule vetoes — in blocking order.
	cands []int32
	// fixed holds the prepared query, one per program column.
	fixed []config.Fixed
	// A single-column query's fixed.
	fixed1 [1]config.Fixed
}

// concatRow builds the blocking key of a full row, matching the
// concatColumns normalization used at learning time.
func concatRow(row []string) string {
	return strings.Join(strings.Fields(strings.Join(row, " ")), " ")
}

// DisplayRow renders a reference row the way answers show it, which is
// also the blocking key a table derives from it: the key cell of a
// single-column row, or the whitespace-normalized concatenation of a
// multi-column row.
func DisplayRow(row []string, multi bool) string {
	if !multi {
		return row[0]
	}
	return concatRow(row)
}

// appendRowKey appends a collision-free composite cache key for a row:
// each cell is uvarint-length-prefixed, so no cell contents can forge a
// boundary (joining with a separator byte could).
//
//autofj:hotpath
func appendRowKey(dst []byte, row []string) []byte {
	for _, cell := range row {
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// StreamMatch is one element of a MatchStream: the query's position in
// the input stream, the record itself, and its match (OK reports whether
// a join was found).
type StreamMatch struct {
	Index  int
	Record string
	Match  Match
	OK     bool
}

// streamChunk is the number of records MatchStream pulls per MatchBatch
// call: big enough to amortize the batch fan-out, small enough to keep
// results flowing.
const streamChunk = 128

// tableScratch is the reusable per-call query state. Query-derived
// references (profiles, cells, word sets) live in the per-miss
// queryState, not here: every scratch field is a persistent sub-scratch
// or a pointer-free buffer.
type tableScratch struct {
	//autofj:keep persistent blocking sub-scratch; holds only capacity and generation stamps, never query data
	sc    *blocking.TableScratch
	cands []blocking.Candidate
	kbuf  []byte // cache key: the record, or a multi-column row's composite key
	//autofj:keep persistent distance-kernel sub-scratch; rows are overwritten per pair and hold no references
	esc *config.EvalScratch
	// per program column, the tables of the fixed side of the current run
	// of pairs: the query of the candidate scan, the center of a ball count
	sides  []config.Side
	drow   []float64
	crow   []float64
	ccut   []float64 // per configuration: a column's share of a cut
	bestD  []float64
	bestL  []int32   // per configuration: the joined row, -1 when none
	rows   []ballRow // the joined rows whose balls this miss counts
	center int32     // the row prepared in sides as a ball center, -1 when none
	// ball-counting work over the scratch's life (ballWork)
	ballEvals, ballCenters uint64
}

// ballRow is the lazy ball count of one joined row during a miss: the
// row's self top-k in blocking order, how far each evaluator group has
// scanned it, and every configuration's running count, which is final
// once its group has scanned every candidate.
type ballRow struct {
	l      int32
	cands  []blocking.Candidate
	at     [64]int32 // by group bit
	counts []uint32  // by configuration
}

// rowDists fills ms.drow with the distance under every configuration whose
// group is in mask between the fixed side (a prepared record per program
// column, and its full row) and dense row l, or +Inf where a bound puts it
// past cut (see config.Evaluator.RowDistances; the set bound reads and
// fills the run sums of t.sums). Multi-column distances keep the
// learned tensor semantics: per-column float32 rounding and maximal
// distance for two missing cells. As terms are non-negative, a column
// skips when its term alone is past the cut (ccut leaves room for the
// rounding).
//
//autofj:hotpath
func (t *Table) rowDists(ms *tableScratch, fixed []config.Fixed, fixedRow []string, l int32, mask config.GroupMask, cut []float64) {
	pl, local := t.store.payload(int(l))
	if !t.store.multi {
		c := config.Cut{D: cut, Sums: t.sums[0], Row: int(l)}
		t.eval.RowDistances(&fixed[0], &pl.cols[0], int(local), mask, &c, ms.esc, ms.drow)
		return
	}
	clear(ms.drow)
	for j := range t.store.cols {
		if t.store.cellOf(pl.rows[local], j) == "" && t.store.cellOf(fixedRow, j) == "" {
			for ci := range ms.drow {
				ms.drow[ci] += t.weights[j]
			}
			continue
		}
		for ci, c := range cut {
			ms.ccut[ci] = c / t.weights[j] * (1 + 1e-6)
		}
		c := config.Cut{D: ms.ccut, Sums: t.sums[j], Row: int(l)}
		t.eval.RowDistances(&fixed[j], &pl.cols[j], int(local), mask, &c, ms.esc, ms.crow)
		for ci := range ms.drow {
			// The conversion rounds the product, so no architecture fuses it
			// into the sum (a fused multiply-add would change the bits).
			ms.drow[ci] += float64(t.weights[j] * float64(float32(ms.crow[ci])))
		}
	}
}

// countBallTo counts the 2θ-ball of dense row l under configuration ci
// until the count reaches limit: the result is the exact count when it is
// below limit, and limit or more otherwise. It scores only ci's group, one
// self top-k candidate at a time, with l prepared in ms.sides as the fixed
// side and held in centers (the caller's, so no row's strings reach the
// scratch) until a count at another row replaces it. The center is
// prepared for the groups of the configurations from ci on that joined l,
// ci's among them. A group's scan and counts live in the miss's ballRow
// of l, so a later configuration of the same group resumes where the scan
// stopped; nothing outlives the miss.
//
//autofj:hotpath
func (t *Table) countBallTo(ms *tableScratch, centers []config.Fixed, ci int, l int32, limit uint32) uint32 {
	apl, alocal := t.store.payload(int(l))
	if ms.center != l {
		ms.releaseSides()
		var mask config.GroupMask
		for cj := ci; cj < len(ms.bestL); cj++ {
			if ms.bestL[cj] == l {
				mask |= t.eval.Group(cj)
			}
		}
		for j, vocab := range t.store.cols {
			centers[j] = vocab.PrepareRow(&ms.sides[j], &apl.cols[j], int(alocal), mask, true)
		}
		ms.center = l
		ms.ballCenters++
	}
	r := ms.ballRow(t, l)
	g := t.eval.Group(ci)
	at := &r.at[bits.TrailingZeros64(uint64(g))]
	for ; r.counts[ci] < limit && int(*at) < len(r.cands); *at++ {
		t.rowDists(ms, centers, apl.rows[alocal], r.cands[*at].ID, g, t.radii)
		ms.ballEvals++
		for cj, d := range ms.drow {
			if d <= t.radii[cj] && r.counts[cj] < maxBallCount && t.eval.Group(cj) == g {
				r.counts[cj]++
			}
		}
	}
	return r.counts[ci]
}

// ballRow returns the miss's count state of row l, starting it (the
// self top-k, no candidate scanned, every count at the center's 1) the
// first time the miss counts a ball of l.
//
//autofj:hotpath
func (ms *tableScratch) ballRow(t *Table, l int32) *ballRow {
	for i := range ms.rows {
		if ms.rows[i].l == l {
			return &ms.rows[i]
		}
	}
	ms.rows = slices.Grow(ms.rows, 1)[:len(ms.rows)+1] // reuses a dropped row's buffers
	r := &ms.rows[len(ms.rows)-1]
	r.l, r.at = l, [64]int32{}
	r.cands = t.store.tix.AppendTopKSelf(r.cands[:0], ms.sc, int(l), t.k)
	r.counts = r.counts[:0]
	for range t.configs {
		r.counts = append(r.counts, 1)
	}
	return r
}

// ballWork returns the (candidate, group) evaluations ball counting ran
// and the ball centers it prepared, over the scratch's life.
func (ms *tableScratch) ballWork() (evals, centers uint64) { return ms.ballEvals, ms.ballCenters }

// releaseSides clears the fixed side of the run of pairs that just ended.
//
//autofj:hotpath
func (ms *tableScratch) releaseSides() {
	for j := range ms.sides {
		ms.sides[j].Release()
	}
}

// fillQuery is the Table's cache-fill edge: merged blocking,
// negative-rule vetoes, and the query row resolved and prepared into
// ms.sides for one surface form under the current generation's
// statistics; scan releases the sides. Caller must hold the read lock
// (the query reads the live vocabulary).
func (t *Table) fillQuery(ms *tableScratch, row []string) *queryState {
	e := &queryState{}
	key := t.store.keyOf(row)
	var f textproc.Forms
	proc := t.store.processKey(&f, key)
	ms.cands = t.store.tix.AppendTopK(ms.cands[:0], ms.sc, key, t.k)
	e.cands = make([]int32, 0, len(ms.cands))
	var qwords []string
	if t.rules != nil {
		qwords = negrule.AppendWords(nil, f[textproc.LowerStemRemovePunct])
	}
	for _, c := range ms.cands {
		if t.rules != nil {
			if pl, local := t.store.payload(int(c.ID)); t.rules.BlocksPair(pl.words[local], qwords) {
				continue
			}
		}
		e.cands = append(e.cands, c.ID)
	}
	if e.fixed = e.fixed1[:]; t.store.multi {
		e.fixed = make([]config.Fixed, len(t.store.cols))
	}
	for j, vocab := range t.store.cols {
		e.fixed[j] = vocab.PrepareQuery(&ms.sides[j], t.store.cellOf(row, j), proc, config.AllGroups)
	}
	return e
}

// matchOne answers one query row (one cell on a single-column table)
// against the segmented table and reports whether the answer came from
// the result cache: a hit returns the Match stored under the current
// generation, a miss runs the full query path over Ref-addressed storage
// and stores its result. Caller must hold the read lock, which also pins
// the generation for the duration of the call.
//
//autofj:hotpath
func (t *Table) matchOne(ms *tableScratch, row []string) (m Match, cached bool) {
	if len(t.configs) == 0 || t.store.tix.Len() == 0 {
		return noMatch(), false
	}
	gen := t.gen.Load()
	if t.store.multi {
		// Full-row key: the blocking key concatenates every cell, so rows
		// differing only outside the program's columns can block apart.
		ms.kbuf = appendRowKey(ms.kbuf[:0], row)
	} else {
		ms.kbuf = append(ms.kbuf[:0], row[0]...)
	}
	if hit, ok := t.cache.lookup(ms.kbuf, gen); ok {
		return hit, true
	}
	//autofj:alloc-ok cache-fill edge: one query-state build per (generation, surface form), amortized across every repeat
	best := t.score(ms, t.fillQuery(ms, row), row)
	key := row[0]
	if t.store.multi {
		//autofj:alloc-ok cache-fill edge: the composite key string is materialized once per (generation, distinct row)
		key = string(ms.kbuf)
	}
	t.cache.store(key, gen, best)
	return best, false
}

// score runs the query path proper over a filled query of row: the
// candidate scan, then the union resolution.
//
//autofj:hotpath
func (t *Table) score(ms *tableScratch, e *queryState, row []string) Match {
	t.scan(ms, e, row)
	return t.resolve(ms)
}

// scan is the per-configuration closest-candidate scan of Algorithm 1. A
// pair-major scan with a strict < keeps the first minimum in blocking
// order. Each configuration's bestD starts just past θ (at unjoinableDist
// when that is lower), so only a candidate that joins becomes bestL;
// bestD is also the cut of the candidate's kernels (see rowDists). It
// releases the query's sides.
//
//autofj:hotpath
func (t *Table) scan(ms *tableScratch, e *queryState, row []string) {
	for ci, c := range t.configs {
		ms.bestL[ci] = -1
		ms.bestD[ci] = min(math.Nextafter(c.Threshold, math.Inf(1)), unjoinableDist)
	}
	for _, l := range e.cands {
		t.rowDists(ms, e.fixed, row, l, config.AllGroups, ms.bestD)
		for ci, d := range ms.drow {
			if d < ms.bestD[ci] {
				ms.bestD[ci] = d
				ms.bestL[ci] = l
			}
		}
	}
	ms.releaseSides()
}

// resolve is the learning-faithful union resolution over the scan's
// joins: conflicting configurations resolve toward the join with the
// higher estimated precision. The estimate is 1/ball, so after the first
// join a configuration changes the answer only when its ball is strictly
// smaller than cBest, the current answer's: it raises the precision on
// the same row or switches rows. The resolution walks the joined
// configurations in index order, counts the first join's ball exactly and
// every later ball only until it reaches cBest (countBallTo).
//
//autofj:hotpath
func (t *Table) resolve(ms *tableScratch) Match {
	ms.rows, ms.center = ms.rows[:0], -1
	var one [1]config.Fixed
	centers := one[:]
	if t.store.multi {
		//autofj:alloc-ok one slot per program column per multi-column miss; the single-column center stays on the stack
		centers = make([]config.Fixed, len(t.store.cols))
	}
	best, cBest := noMatch(), uint32(math.MaxUint32)
	for ci, bl := range ms.bestL {
		if cBest == 1 {
			break // no ball is smaller than its center alone
		}
		if bl < 0 {
			continue
		}
		c := t.countBallTo(ms, centers, ci, bl, cBest)
		if c >= cBest {
			continue
		}
		cBest = c
		if best.Left == int(bl) {
			best.Precision = 1 / float64(c)
		} else {
			best = Match{Left: int(bl), Distance: ms.bestD[ci], Precision: 1 / float64(c), Config: ci}
		}
	}
	ms.releaseSides()
	return best
}

func (t *Table) getScratch() *tableScratch { return t.pool.Get().(*tableScratch) }

// putScratch returns a scratch to the pool, unless a query longer than
// maxCachedKey grew its key buffer past it. Query-derived references
// live in the per-miss queryState and a ball center's strings on the
// stack, never in the scratch, whose sides hold released weight tables
// only (TestTableScratchRetainsNoQueryMemory).
//
//autofj:hotpath
func (t *Table) putScratch(ms *tableScratch) {
	if cap(ms.kbuf) <= maxCachedKey {
		t.pool.Put(ms)
	}
}

// Match matches one query record, returning the join (if any) with its
// distance and unsupervised precision estimate. Safe for concurrent use;
// the answer is consistent with one single generation of the table.
func (t *Table) Match(ctx context.Context, record string) (Match, bool, error) {
	if t.store.multi {
		return noMatch(), false, errNeedRow
	}
	return t.MatchRow(ctx, []string{record})
}

// MatchRow matches one full row of exactly RowWidth cells. On a
// multi-column table the whole row forms the blocking key, so a different
// arity would silently change the key shape the program was learned on.
func (t *Table) MatchRow(ctx context.Context, row []string) (Match, bool, error) {
	if len(row) != t.store.width {
		return noMatch(), false, fmt.Errorf("core: table wants rows with %d cells, got %d", t.store.width, len(row))
	}
	if err := t.rlock(ctx, nil); err != nil {
		return noMatch(), false, err
	}
	defer t.mu.RUnlock()
	ms := t.getScratch()
	defer t.putScratch(ms)
	mt, _ := t.matchOne(ms, row)
	return mt, mt.Left >= 0, nil
}

// rlock is the prologue every Match form shares: each query row must have
// exactly RowWidth cells, and ctx must be live. On success the caller
// holds the read lock, so its queries answer under one generation.
func (t *Table) rlock(ctx context.Context, rows [][]string) error {
	if err := checkRows(rows, t.store.width); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.mu.RLock()
	return nil
}

// checkRows reports the first of rows that does not have width cells.
func checkRows(rows [][]string, width int) error {
	for i, row := range rows {
		if len(row) != width {
			return fmt.Errorf("core: row %d has %d cells, want %d", i, len(row), width)
		}
	}
	return nil
}

// MatchBatch matches a batch of query records, sharded across the
// table's parallelism. The result is aligned with records (unmatched
// entries have Left == -1 and Config == -1) and is bit-identical at every
// parallelism level. The whole batch answers under ONE generation.
func (t *Table) MatchBatch(ctx context.Context, records []string) ([]Match, error) {
	if t.store.multi {
		return nil, errNeedRow
	}
	return t.MatchRows(ctx, oneCellRows(records))
}

// MatchRows is the row-based batch form.
func (t *Table) MatchRows(ctx context.Context, rows [][]string) ([]Match, error) {
	tb, err := t.MatchBatchAt(ctx, rows)
	if err != nil {
		return nil, err
	}
	return tb.Matches, nil
}

// TableBatch is a batch answer bound to the generation that produced it
// (moved by row changes, never by compaction): the matches, the matched
// reference rows (aligned; nil where unmatched — valid immutable
// snapshots even after later mutations), whether each answer came from
// the result cache, and the generation, taken atomically under one read
// lock.
type TableBatch struct {
	Matches    []Match
	Rows       [][]string
	Cached     []bool
	Generation uint64
}

// MatchBatchAt matches a batch of full rows and returns the matches
// together with the matched reference rows and the generation that
// answered — everything a serving layer needs to render the results
// without re-locking the table.
func (t *Table) MatchBatchAt(ctx context.Context, rows [][]string) (*TableBatch, error) {
	if err := t.rlock(ctx, rows); err != nil {
		return nil, err
	}
	defer t.mu.RUnlock()
	cached := make([]bool, len(rows))
	//autofj:blocking the batch must answer under one generation, so the read lock is held across the fan-out by design; writers wait, readers do not
	out, err := t.batchLocked(ctx, len(rows), func(ms *tableScratch, i int) (mt Match) {
		mt, cached[i] = t.matchOne(ms, rows[i])
		return mt
	})
	if err != nil {
		return nil, err
	}
	tb := &TableBatch{Matches: out, Rows: make([][]string, len(out)), Cached: cached, Generation: t.gen.Load()}
	for i, m := range out {
		if m.Left >= 0 {
			pl, local := t.store.payload(m.Left)
			tb.Rows[i] = pl.rows[local]
		}
	}
	return tb, nil
}

// batchLocked shards n independent queries across workers under the
// caller's read lock; results land at fixed indexes. Cancellation is
// checked per record.
func (t *Table) batchLocked(ctx context.Context, n int, one func(*tableScratch, int) Match) ([]Match, error) {
	out := make([]Match, n)
	var stop atomic.Bool
	parallel.Shard(n, parallel.Workers(t.parallelism, n), func(start, end int) {
		ms := t.getScratch()
		defer t.putScratch(ms)
		for i := start; i < end; i++ {
			if stop.Load() {
				return
			}
			if ctx.Err() != nil {
				stop.Store(true)
				return
			}
			out[i] = one(ms, i)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// MatchStream matches a stream of query records on the caller's
// goroutine, yielding results in input order: it pulls up to streamChunk
// records, matches them with MatchBatch (so each chunk is sharded across
// workers and answers under one generation; a mutation can land between
// chunks) and yields the chunk's results before pulling more. Breaking
// out of the loop stops the stream; an error, such as ctx's cancellation,
// is yielded as the final pair.
func (t *Table) MatchStream(ctx context.Context, records iter.Seq[string]) iter.Seq2[StreamMatch, error] {
	return func(yield func(StreamMatch, error) bool) {
		if t.store.multi {
			yield(StreamMatch{Index: -1, Match: noMatch()}, errNeedRow)
			return
		}
		base := 0
		buf := make([]string, 0, streamChunk)
		// flush matches and yields the buffered chunk; false ends the stream.
		flush := func() bool {
			res, err := t.MatchBatch(ctx, buf)
			if err != nil {
				yield(StreamMatch{Index: base, Match: noMatch()}, err)
				return false
			}
			for i, m := range res {
				if !yield(StreamMatch{Index: base + i, Record: buf[i], Match: m, OK: m.Left >= 0}, nil) {
					return false
				}
			}
			base += len(buf)
			buf = buf[:0]
			return true
		}
		for rec := range records {
			if buf = append(buf, rec); len(buf) == streamChunk && !flush() {
				return
			}
		}
		if len(buf) > 0 {
			flush()
		}
	}
}
