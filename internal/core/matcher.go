package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
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

// NoMatch returns the canonical unmatched result (Left and Config -1) —
// what serving layers should answer for a query they could not run.
func NoMatch() Match { return noMatch() }

// Matcher is a join program compiled against a fixed reference table: the
// blocking index, per-record profiles, frozen negative rules, and the
// precision-estimation geometry are built exactly once, so queries are
// cheap repeatable lookups instead of the rebuild-per-call of
// Program.Apply on a fresh table pair.
//
// A Matcher is immutable after Compile and safe for concurrent use; the
// only internal writes are an atomic ball-count cache (deterministic
// values, so racing fills are benign) and a sync.Pool of per-call scratch
// that keeps the steady-state query path allocation-lean.
//
// Matching semantics reproduce the learning-time union semantics of
// Algorithm 1 exactly: per configuration (in program order) the query
// joins its closest blocked, rule-surviving candidate within the
// threshold, and conflicting configurations resolve toward the join with
// the higher estimated precision. Token IDF statistics are computed from
// the reference table alone (the only corpus a serving handle can know),
// whereas learning computes them over both tables — for IDF-weighted
// configurations the two can therefore differ in the last float bits.
type Matcher struct {
	configs []Configuration
	multi   bool
	columns []int
	weights []float64
	// rowWidth is the exact arity MatchRow requires on a multi-column
	// matcher — the reference table's column count — so a query row
	// concatenates to the same blocking-key shape the program was
	// learned on.
	rowWidth int

	ix    *blocking.Index
	k     int
	rules *negrule.Frozen
	cols  []matcherCol
	nL    int

	// eval is the fused pair-major scorer over the program's functions:
	// one call per (candidate, query) pair fills every configuration's
	// distance, sharing the kernel work exactly like the learning-time
	// engine (serving and learning go through the same kernels).
	eval *config.Evaluator

	// balls caches the 2θ-ball cardinality per (configuration, reference
	// record), indexed cfg*nL+left; 0 means "not yet computed" (a real
	// count is always >= 1). Values are deterministic, so concurrent
	// fills are benign.
	balls []atomic.Uint32
	radii []float64 // per-configuration ball radius, ballFactor·θ

	// cache is the result cache: one final Match per distinct query
	// surface form, so a repeated query is a map lookup. Matcher state
	// never changes after Compile, so entries are stored under generation
	// 0 forever.
	cache *queryCache

	parallelism int

	pool sync.Pool // *matchScratch
}

// matcherCol bundles the compiled state of one program column: the corpus
// statistics (for building query profiles), the columnar reference arena,
// and the raw cells (for the multi-column missing-value rule). The
// per-record pointer profiles used to build the arena are dropped after
// Compile — the arena is the only reference-side representation the
// query path reads.
type matcherCol struct {
	corpus *config.Corpus
	arena  *config.ProfileArena
	cells  []string
}

// matchScratch is the reusable per-call state of the query path. Every
// field is either a persistent sub-scratch or a pointer-free buffer
// (candidate ids, distance rows, key bytes), so a pooled scratch pins no
// query-sized memory between calls and putScratch needs no clearing.
type matchScratch struct {
	//autofj:keep persistent blocking sub-scratch; holds only capacity and generation stamps, never query data
	sc        *blocking.Scratch
	cands     []blocking.Candidate
	ballCands []blocking.Candidate
	kbuf      []byte // composite cache key of a multi-column row
	//autofj:keep persistent distance-kernel sub-scratch; rows are overwritten per pair and hold no references
	esc   *config.EvalScratch
	drow  []float64 // per-configuration distances of one candidate
	crow  []float64 // per-column raw distances (multi-column only)
	bestD []float64 // per-configuration closest distance
	bestL []int32   // per-configuration closest candidate
	// counts holds the per-configuration ball counts of the record being
	// filled.
	counts []uint32
}

var (
	errNeedRow    = errors.New("core: matcher was compiled from a multi-column program; use MatchRow or MatchRows")
	errBatchShape = errors.New("core: result slice length must equal the record count")
)

// Compile builds a serving Matcher for a single-column program against
// the reference table left. Preparation (blocking index, profiles,
// negative rules) happens once, sharded across opt.Parallelism workers;
// the same knob bounds MatchBatch fan-out. Programs learned by the
// multi-column search must use CompileMultiColumn.
func (p *Program) Compile(left []string, opt Options) (*Matcher, error) {
	if len(p.Columns) > 0 {
		return nil, errors.New("core: program was learned on multiple columns; use CompileMultiColumn")
	}
	return p.compile([][]string{left}, left, nil, nil, opt)
}

// CompileMultiColumn builds a serving Matcher for a multi-column program:
// leftCols are the full columns of the reference table (the stored column
// selection indexes into them), and queries arrive as full rows via
// MatchRow/MatchRows.
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
	m, err := p.compile(selectColumns(leftCols, p.Columns), concatColumns(leftCols), p.Columns, p.Weights, opt)
	if err != nil {
		return nil, err
	}
	m.multi = true
	m.rowWidth = len(leftCols)
	return m, nil
}

// compile is the shared preparation path: progCols are the program's
// columns (one entry for single-column programs), leftKey the blocking
// keys of the reference records.
func (p *Program) compile(progCols [][]string, leftKey []string, columns []int, colWeights []float64, opt Options) (*Matcher, error) {
	configs, err := p.configurations()
	if err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	beta := p.BlockingBeta
	if beta <= 0 {
		beta = DefaultBlockingBeta
	}
	factor := p.BallRadiusFactor
	if factor <= 0 {
		factor = opt.BallRadiusFactor
	}
	if factor <= 0 {
		factor = 2
	}

	m := &Matcher{
		configs:     configs,
		multi:       columns != nil,
		columns:     append([]int(nil), columns...),
		weights:     append([]float64(nil), colWeights...),
		nL:          len(leftKey),
		radii:       ballRadii(configs, factor),
		parallelism: opt.Parallelism,
	}
	m.ix = blocking.NewIndexParallel(leftKey, opt.Parallelism)
	m.k = blocking.K(len(leftKey), beta)

	space := make([]config.JoinFunction, len(configs))
	for i, c := range configs {
		space[i] = c.Function
	}
	m.eval = config.NewEvaluator(space)
	m.cols = make([]matcherCol, len(progCols))
	for j, colRecs := range progCols {
		corpus, profs := config.NewCorpusProfiles(space, opt.Parallelism, colRecs)
		// The pointer profiles exist only long enough to flatten into the
		// columnar arena; the query path reads the arena exclusively.
		m.cols[j] = matcherCol{
			corpus: corpus,
			arena:  corpus.BuildArena(profs[0]),
			cells:  colRecs,
		}
	}
	m.cache = newQueryCache(opt.QueryCacheSize)
	if len(p.NegativeRules) > 0 {
		set := negrule.NewSet()
		for _, pair := range p.NegativeRules {
			set.Add(pair[0], pair[1])
		}
		m.rules = set.Freeze(leftKey, opt.Parallelism)
	}
	m.balls = make([]atomic.Uint32, len(configs)*len(leftKey))
	m.pool.New = func() any {
		return &matchScratch{
			sc:     m.ix.NewScratch(),
			esc:    m.eval.NewScratch(),
			drow:   make([]float64, len(m.configs)),
			crow:   make([]float64, len(m.configs)),
			bestD:  make([]float64, len(m.configs)),
			bestL:  make([]int32, len(m.configs)),
			counts: make([]uint32, len(m.configs)),
		}
	}
	return m, nil
}

// Len returns the number of reference records the matcher was compiled
// against.
func (m *Matcher) Len() int { return m.nL }

// MultiColumn reports whether queries must arrive as rows (MatchRow)
// rather than single strings (Match).
func (m *Matcher) MultiColumn() bool { return m.multi }

// RowWidth returns the exact number of cells MatchRow requires: the
// reference table's arity for a multi-column matcher, 1 otherwise.
// Serving layers that coalesce requests into MatchRows batches must
// validate each row against this up front — MatchRows rejects the whole
// batch on one malformed row, which would fail innocent bystanders.
func (m *Matcher) RowWidth() int {
	if !m.multi {
		return 1
	}
	return m.rowWidth
}

// Program returns the configurations the matcher serves, in program
// order (Match.Config indexes this slice).
func (m *Matcher) Program() []Configuration {
	return append([]Configuration(nil), m.configs...)
}

func (m *Matcher) getScratch() *matchScratch { return m.pool.Get().(*matchScratch) }

// putScratch returns a scratch to the pool. The scratch holds no
// query-derived references — query profiles, cells, and word sets live in
// the per-miss queryState, and every scratch buffer is pointer-free (ids,
// float rows, key bytes) — so nothing needs clearing;
// TestScratchRetainsNoQueryMemory pins that invariant.
//
//autofj:hotpath
func (m *Matcher) putScratch(ms *matchScratch) {
	m.pool.Put(ms)
}

// pairDists fills ms.drow with the distance of EVERY configuration
// between reference record l and the query profiles — one fused
// arena-kernel pass per (pair, representation) instead of one per
// configuration. Multi-column distances reproduce the learned tensor
// semantics: per-column float32 rounding and maximal distance for two
// missing cells.
//
//autofj:hotpath
func (m *Matcher) pairDists(ms *matchScratch, e *queryState, l int32) {
	if !m.multi {
		m.eval.ArenaDistances(m.cols[0].arena, l, e.qprofs[0], ms.esc, ms.drow)
		return
	}
	for ci := range ms.drow {
		ms.drow[ci] = 0
	}
	for j := range m.cols {
		c := &m.cols[j]
		if c.cells[l] == "" && e.qcells[j] == "" {
			for ci := range ms.drow {
				ms.drow[ci] += m.weights[j]
			}
			continue
		}
		m.eval.ArenaDistances(c.arena, l, e.qprofs[j], ms.esc, ms.crow)
		for ci := range ms.drow {
			ms.drow[ci] += m.weights[j] * float64(float32(ms.crow[ci]))
		}
	}
}

// ballCount returns the number of reference records (center included)
// within ballFactor·θ of record l under configuration ci — the
// denominator of the Eq. 9 precision estimate — from the ball cache,
// filling every configuration's slot of l on first use.
//
//autofj:hotpath
func (m *Matcher) ballCount(ci int, l int32, ms *matchScratch) uint32 {
	if v := m.balls[ci*m.nL+int(l)].Load(); v != 0 {
		return v
	}
	m.fillBalls(l, ms)
	return ms.counts[ci]
}

// fillBalls counts the balls of record l under EVERY configuration in one
// pass: one self-blocking call and one fused arena-kernel row per ball
// candidate, compared against all the radii. ms.drow/ms.crow are free
// here — ball counts are only taken after the candidate scan has finished
// with them. Counts are cached atomically; the values are deterministic,
// so concurrent fills store the same result.
//
//autofj:hotpath
func (m *Matcher) fillBalls(l int32, ms *matchScratch) {
	ms.ballCands = m.ix.AppendTopKSelf(ms.ballCands[:0], ms.sc, int(l), m.k)
	for ci := range ms.counts {
		ms.counts[ci] = 1
	}
	for _, c := range ms.ballCands {
		if !m.multi {
			m.eval.ArenaPairDistances(m.cols[0].arena, l, c.ID, ms.esc, ms.drow)
		} else {
			clear(ms.drow)
			for j := range m.cols {
				col := &m.cols[j]
				if col.cells[l] == "" && col.cells[c.ID] == "" {
					for ci := range ms.drow {
						ms.drow[ci] += m.weights[j]
					}
					continue
				}
				m.eval.ArenaPairDistances(col.arena, l, c.ID, ms.esc, ms.crow)
				for ci := range ms.drow {
					ms.drow[ci] += m.weights[j] * float64(float32(ms.crow[ci]))
				}
			}
		}
		countBallRow(ms.counts, ms.drow, m.radii)
	}
	for ci, n := range ms.counts {
		m.balls[ci*m.nL+int(l)].Store(n)
	}
}

// ballRadii returns every configuration's ball radius, factor·θ.
func ballRadii(configs []Configuration, factor float64) []float64 {
	radii := make([]float64, len(configs))
	for ci, c := range configs {
		radii[ci] = factor * c.Threshold
	}
	return radii
}

// countBallRow adds one ball candidate to every configuration's count:
// counts[ci] grows when the candidate's distance is within radii[ci],
// saturating at maxBallCount.
//
//autofj:hotpath
func countBallRow(counts []uint32, drow, radii []float64) {
	for ci, d := range drow {
		if d <= radii[ci] && counts[ci] < maxBallCount {
			counts[ci]++
		}
	}
}

// queryState is the transient miss-path state of one query: everything
// about it that does not depend on which candidate it is scored against.
// It is built per cache miss and dropped once the Match is computed.
type queryState struct {
	// cands lists the surviving candidates — blocking top-k minus
	// negative-rule vetoes — in blocking order.
	cands []int32
	// qprofs holds the columnar query profiles, one per program column
	// (the arena-backed Matcher path).
	qprofs []*config.QueryProfile
	// profs holds pointer query profiles, one per program column (the
	// Table path, whose reference side is reweighted per generation).
	profs []*config.Profile
	// qcells are the projected query cells of a multi-column row, for the
	// missing-value rule.
	qcells []string
}

// fillQuery is the cache-fill edge of the query path: blocking,
// negative-rule vetoes, and columnar query-profile construction for one
// surface form. It allocates freely — a miss happens once per distinct
// query — and the state shares nothing with the scratch, so pooled
// scratches never pin query memory.
func (m *Matcher) fillQuery(ms *matchScratch, key string, row []string) *queryState {
	e := &queryState{}
	ms.cands = m.ix.AppendTopK(ms.cands[:0], ms.sc, key, m.k, -1)
	e.cands = make([]int32, 0, len(ms.cands))
	if m.rules != nil && m.rules.Len() > 0 {
		qwords := negrule.AppendWordSet(nil, key)
		for _, c := range ms.cands {
			if !m.rules.Blocks(int(c.ID), qwords) {
				e.cands = append(e.cands, c.ID)
			}
		}
	} else {
		for _, c := range ms.cands {
			e.cands = append(e.cands, c.ID)
		}
	}
	if m.multi {
		e.qcells = make([]string, len(m.cols))
		for j, cj := range m.columns {
			e.qcells[j] = row[cj]
		}
	}
	e.qprofs = make([]*config.QueryProfile, len(m.cols))
	for j := range m.cols {
		cell := key
		if m.multi {
			cell = e.qcells[j]
		}
		e.qprofs[j] = m.cols[j].corpus.ArenaQuery(m.cols[j].arena, cell)
	}
	return e
}

// matchOne answers one record: the cached Match of a repeated surface
// form, or on a miss the full query path, whose result is then stored.
// Multi-column callers pass the row and an empty key — the concatenated
// blocking key is only materialized on a miss.
//
//autofj:hotpath
func (m *Matcher) matchOne(ms *matchScratch, key string, row []string) (Match, bool) {
	if len(m.configs) == 0 || m.nL == 0 {
		return noMatch(), false
	}
	if m.multi {
		// The cache key covers the FULL row: the blocking key concatenates
		// every cell, so rows differing only outside the program's columns
		// can still block differently.
		ms.kbuf = appendRowKey(ms.kbuf[:0], row)
		if mt, ok := m.cache.lookupBytes(ms.kbuf, 0); ok {
			return mt, mt.Left >= 0
		}
		//autofj:alloc-ok cache-fill edge: the blocking key is concatenated once per distinct row
		key = concatRow(row)
	} else if mt, ok := m.cache.lookup(key, 0); ok {
		return mt, mt.Left >= 0
	}
	//autofj:alloc-ok cache-fill edge: one query-state build per distinct surface form, amortized across every repeat
	best := m.score(ms, m.fillQuery(ms, key, row))
	if m.multi {
		//autofj:alloc-ok cache-fill edge: the composite key string is materialized once per distinct row
		key = string(ms.kbuf)
	}
	m.cache.store(key, 0, best)
	return best, best.Left >= 0
}

// score runs the query path proper over a filled query: the
// per-configuration closest-candidate scans over the columnar arena, and
// the learning-faithful union resolution.
//
//autofj:hotpath
func (m *Matcher) score(ms *matchScratch, e *queryState) Match {
	// Pair-major candidate scan: one fused evaluation per candidate fills
	// every configuration's distance, and a strict < keeps the first
	// minimum in blocking order — exactly the configuration-major result.
	for ci := range m.configs {
		ms.bestL[ci] = -1
		ms.bestD[ci] = math.Inf(1)
	}
	for _, l := range e.cands {
		m.pairDists(ms, e, l)
		for ci := range ms.drow {
			if ms.drow[ci] < ms.bestD[ci] {
				ms.bestD[ci] = ms.drow[ci]
				ms.bestL[ci] = l
			}
		}
	}
	best := noMatch()
	for ci := range m.configs {
		bl, bd := ms.bestL[ci], ms.bestD[ci]
		if bl < 0 || bd > m.configs[ci].Threshold || bd >= unjoinableDist {
			continue
		}
		pr := 1 / float64(m.ballCount(ci, bl, ms))
		switch {
		case best.Left < 0:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		case best.Left == int(bl):
			// Same join produced again: keep the more confident estimate
			// but the original configuration, as the greedy search does.
			if pr > best.Precision {
				best.Precision = pr
			}
		case pr > best.Precision:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		}
	}
	return best
}

// concatRow builds the blocking key of a full row, matching the
// concatColumns normalization used at learning time.
func concatRow(row []string) string {
	return strings.Join(strings.Fields(strings.Join(row, " ")), " ")
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

// QueryCacheStats returns the cumulative hit/miss counters of the result
// cache: a hit returned a stored Match without scoring (a disabled cache
// reports every lookup as a miss).
func (m *Matcher) QueryCacheStats() (hits, misses uint64) { return m.cache.stats() }

// Match matches one query record, returning the join (if any) with its
// distance and unsupervised precision estimate. Safe for concurrent use.
func (m *Matcher) Match(ctx context.Context, record string) (Match, bool, error) {
	if m.multi {
		return noMatch(), false, errNeedRow
	}
	if err := ctx.Err(); err != nil {
		return noMatch(), false, err
	}
	ms := m.getScratch()
	defer m.putScratch(ms)
	mt, ok := m.matchOne(ms, record, nil)
	return mt, ok, nil
}

// MatchRow matches one full row against a multi-column matcher. The row
// must have exactly as many cells as the reference table has columns —
// the whole row forms the blocking key, so a different arity would
// silently change the key shape the program was learned on. On a
// single-column matcher it accepts exactly one cell.
func (m *Matcher) MatchRow(ctx context.Context, row []string) (Match, bool, error) {
	if !m.multi {
		if len(row) != 1 {
			return noMatch(), false, fmt.Errorf("core: single-column matcher wants 1 cell, got %d", len(row))
		}
		return m.Match(ctx, row[0])
	}
	if len(row) != m.rowWidth {
		return noMatch(), false, fmt.Errorf("core: matcher wants rows with %d cells (the reference table's arity), got %d", m.rowWidth, len(row))
	}
	if err := ctx.Err(); err != nil {
		return noMatch(), false, err
	}
	ms := m.getScratch()
	defer m.putScratch(ms)
	mt, ok := m.matchOne(ms, "", row)
	return mt, ok, nil
}

// MatchBatch matches a batch of query records, sharding across the
// parallelism the matcher was compiled with. The result is aligned with
// records (unmatched entries have Left == -1 and Config == -1) and is
// bit-identical at every parallelism level.
func (m *Matcher) MatchBatch(ctx context.Context, records []string) ([]Match, error) {
	if m.multi {
		return nil, errNeedRow
	}
	return m.batch(ctx, len(records), func(ms *matchScratch, i int) Match {
		mt, _ := m.matchOne(ms, records[i], nil)
		return mt
	})
}

// MatchRows is the row-based batch form for multi-column matchers (it
// also accepts single-cell rows on a single-column matcher).
func (m *Matcher) MatchRows(ctx context.Context, rows [][]string) ([]Match, error) {
	for i, row := range rows {
		if m.multi {
			if len(row) != m.rowWidth {
				return nil, fmt.Errorf("core: row %d has %d cells, want %d (the reference table's arity)", i, len(row), m.rowWidth)
			}
		} else if len(row) != 1 {
			return nil, fmt.Errorf("core: row %d has %d cells; single-column matcher wants 1", i, len(row))
		}
	}
	return m.batch(ctx, len(rows), func(ms *matchScratch, i int) Match {
		var mt Match
		if m.multi {
			mt, _ = m.matchOne(ms, "", rows[i])
		} else {
			mt, _ = m.matchOne(ms, rows[i][0], nil)
		}
		return mt
	})
}

// MatchBatchInto is MatchBatch writing into a caller-provided result
// slice (len(out) must equal len(records)): the steady-state form for
// serving loops that reuse one result buffer. At effective parallelism 1
// the whole call is allocation-free once the query cache is warm; wider
// fan-out costs O(workers) goroutine bookkeeping per call.
func (m *Matcher) MatchBatchInto(ctx context.Context, records []string, out []Match) error {
	if m.multi {
		return errNeedRow
	}
	if len(out) != len(records) {
		return errBatchShape
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if parallel.Workers(m.parallelism, len(records)) > 1 {
		return m.batchInto(ctx, out, func(ms *matchScratch, i int) Match {
			mt, _ := m.matchOne(ms, records[i], nil)
			return mt
		})
	}
	ms := m.getScratch()
	defer m.putScratch(ms)
	for i := range records {
		if err := ctx.Err(); err != nil {
			return err
		}
		out[i], _ = m.matchOne(ms, records[i], nil)
	}
	return nil
}

// MatchRowsInto is MatchRows writing into a caller-provided result slice
// (len(out) must equal len(rows)). Like MatchBatchInto, effective
// parallelism 1 runs a closure-free inline loop that is allocation-free
// once the query cache is warm — the steady-state form for row-based
// serving loops.
func (m *Matcher) MatchRowsInto(ctx context.Context, rows [][]string, out []Match) error {
	if len(out) != len(rows) {
		return errBatchShape
	}
	for i, row := range rows {
		if m.multi {
			if len(row) != m.rowWidth {
				return fmt.Errorf("core: row %d has %d cells, want %d (the reference table's arity)", i, len(row), m.rowWidth)
			}
		} else if len(row) != 1 {
			return fmt.Errorf("core: row %d has %d cells; single-column matcher wants 1", i, len(row))
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if parallel.Workers(m.parallelism, len(rows)) > 1 {
		return m.batchInto(ctx, out, func(ms *matchScratch, i int) Match {
			var mt Match
			if m.multi {
				mt, _ = m.matchOne(ms, "", rows[i])
			} else {
				mt, _ = m.matchOne(ms, rows[i][0], nil)
			}
			return mt
		})
	}
	ms := m.getScratch()
	defer m.putScratch(ms)
	for i, row := range rows {
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.multi {
			out[i], _ = m.matchOne(ms, "", row)
		} else {
			out[i], _ = m.matchOne(ms, row[0], nil)
		}
	}
	return nil
}

// batch shards n independent queries across workers, each with pooled
// scratch; results land at fixed indexes, so output never depends on
// scheduling. Cancellation is checked per record.
func (m *Matcher) batch(ctx context.Context, n int, one func(*matchScratch, int) Match) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Match, n)
	if err := m.batchInto(ctx, out, one); err != nil {
		return nil, err
	}
	return out, nil
}

// batchInto is the sharded fan-out behind batch and MatchBatchInto.
func (m *Matcher) batchInto(ctx context.Context, out []Match, one func(*matchScratch, int) Match) error {
	var stop atomic.Bool
	parallel.Shard(len(out), parallel.Workers(m.parallelism, len(out)), func(_, start, end int) {
		ms := m.getScratch()
		defer m.putScratch(ms)
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
	return ctx.Err()
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

// streamChunk is the pipelining granularity of MatchStream: big enough to
// amortize batch fan-out, small enough to keep results flowing.
const streamChunk = 128

// MatchStream matches a stream of query records, yielding results in
// input order while the next chunk is matched concurrently (one chunk of
// lookahead, each chunk sharded like MatchBatch). The input sequence is
// pulled from an internal goroutine, so it must not be shared with the
// consumer. Breaking out of the loop or cancelling ctx stops the
// pipeline promptly; a cancellation error is yielded as the final pair.
func (m *Matcher) MatchStream(ctx context.Context, records iter.Seq[string]) iter.Seq2[StreamMatch, error] {
	return matchStream(ctx, m.multi, records, m.MatchBatch)
}

// matchStream is the shared streaming pipeline behind Matcher.MatchStream
// and Table.MatchStream, parameterized by the batch matcher it feeds.
func matchStream(ctx context.Context, multi bool, records iter.Seq[string], batch func(context.Context, []string) ([]Match, error)) iter.Seq2[StreamMatch, error] {
	return func(yield func(StreamMatch, error) bool) {
		if multi {
			yield(StreamMatch{Index: -1, Match: noMatch()}, errNeedRow)
			return
		}
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		type chunk struct {
			base int
			recs []string
			res  []Match
			err  error
		}
		ch := make(chan chunk, 1)
		// stopErr records a silent early producer stop; the write happens
		// before close(ch), so the consumer's post-drain read is ordered.
		var stopErr error
		go func() {
			defer close(ch)
			base := 0
			buf := make([]string, 0, streamChunk)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				recs := buf
				buf = make([]string, 0, streamChunk)
				res, err := batch(ictx, recs)
				select {
				case ch <- chunk{base: base, recs: recs, res: res, err: err}:
				case <-ictx.Done():
					stopErr = ictx.Err()
					return false
				}
				base += len(recs)
				return err == nil
			}
			for rec := range records {
				if err := ictx.Err(); err != nil {
					stopErr = err
					return
				}
				buf = append(buf, rec)
				if len(buf) >= streamChunk && !flush() {
					return
				}
			}
			flush()
		}()
		for c := range ch {
			if c.err != nil {
				yield(StreamMatch{Index: c.base, Match: noMatch()}, c.err)
				return
			}
			for i := range c.res {
				sm := StreamMatch{
					Index:  c.base + i,
					Record: c.recs[i],
					Match:  c.res[i],
					OK:     c.res[i].Left >= 0,
				}
				if !yield(sm, nil) {
					return
				}
			}
		}
		// The producer may have stopped silently on cancellation; surface
		// that as a final yielded error — but only when it actually cut
		// the stream short (a deadline expiring after the last result was
		// delivered is not a failure).
		if stopErr != nil {
			if err := ctx.Err(); err != nil {
				yield(StreamMatch{Index: -1, Match: noMatch()}, err)
			}
		}
	}
}
