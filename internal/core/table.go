package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
)

// Table is a join program compiled against a MUTABLE reference table: an
// ordered list of immutable compiled segments plus a small mutable delta,
// queried through Match/MatchRow/MatchBatch/MatchRows/MatchStream. It is
// the one query engine: Matcher (what Learn and Program.Compile return)
// is an alias of it. Add costs O(rows + V) — the added rows, plus one pass
// over the V-slot token vocabulary when they bring new tokens — never
// |L|. Remove tombstones the touched rows, then renumbers the dense ids
// with one pass over every stored row (blocking.TableIndex.Renumber), so
// it is linear in the stored table. Background Compact seals the delta
// into a new segment off the serving path, swapping it in atomically.
//
// A row is stored once, as its cells, count rows and word set (see
// tablePayload). NewTable, Learn's handover and Add store rows through one
// builder, appendRows.
//
// Every query is BIT-IDENTICAL to what a fresh table over the current live
// rows (NewTable, Program.Compile or CompileMultiColumn) would answer:
//
//   - blocking merges per-segment top-k streams with a brute-force delta
//     scan under globally maintained gram df counts (see blocking.TableIndex);
//   - rows store their token sets as integer slot runs with counts over
//     one vocabulary per program column and counted representation
//     (config.Vocab), which keeps integer df/doc counts — equal to the
//     batch-built statistics exactly — each slot's place in the lexical
//     order and its IDF weight. A query is prepared once into
//     slot-indexed weight tables, and each candidate is scored straight
//     from its stored slot run, in the floating-point order a fresh
//     profile build uses, so no token string is hashed or compared per
//     candidate;
//   - the 2θ-ball precision denominators run over the same merged top-k
//     candidates. The first time a row wins, one pass, with the row
//     prepared as the fixed side, counts its ball under the evaluator
//     groups of the configurations that joined to it;
//     the counts are cached per configuration, tagged with the statistics
//     generation so no mutation can leak a stale count, and a later join
//     under another group fills that group's slots then.
//
// Concurrency: queries take a read lock for their whole (batch) duration;
// Add/Remove/compaction swaps take the write lock. The generation counter
// bumps on EVERY visible mutation (add, remove, compaction swap) before
// the lock is released, so cache layers keyed on (generation, query) can
// never serve a stale table. The statistics generation backing the ball
// cache is 32-bit and wraps after ~4 billion mutations; a wrapped tag
// could in principle revive a stale cached count, which we accept.
type Table struct {
	progJSON []byte
	configs  []Configuration
	columns  []int
	weights  []float64
	space    []config.JoinFunction
	reps     []config.Rep
	eval     *config.Evaluator
	rules    *negrule.Frozen

	mu    sync.RWMutex
	tix   *blocking.TableIndex
	segs  []*tablePayload
	delta *tablePayload
	cols  []*config.Vocab  // per program column
	balls []atomic.Uint64  // packed statsGen<<32 | count, by ci*ballStride+dense
	recs  []config.Counted // Add's counted record per program column, reused under the write lock

	// cache is the result cache, keyed by the mutation generation: a
	// repeated query surface form returns its stored Match. Entries fill
	// under the read lock at the generation they observe and read as
	// misses after any mutation, so the table can never serve an answer
	// computed against older rows, dense ids, or IDF weights.
	cache *queryCache

	gen atomic.Uint64

	pool sync.Pool // *tableScratch

	radii []float64 // per-configuration ball radius, 2θ

	beta        float64
	rowWidth    int
	parallelism int
	k           int
	ballStride  int
	statsGen    uint32
	keyForms    textproc.Mask // see processKey
	multi       bool
	hasRules    bool
	compacting  bool
}

// tablePayload stores the row-level compiled state of one segment (frozen)
// or of the delta (append-only between compactions). A row is stored once,
// as its cells, its count rows (one per program column) and its
// negative-rule word set; its blocking key and program-column cells are
// derived from the cells where they are read (keyOf, cellOf). Slices only
// grow; row contents are immutable, so read-locked queries may hold
// references across mutations.
type tablePayload struct {
	rows  [][]string
	cols  []config.Rows // [program column]
	words [][]string    // nil when the program has no negative rules
}

// newPayload returns empty storage with room for n rows.
func (t *Table) newPayload(n int) *tablePayload {
	pl := &tablePayload{
		rows: make([][]string, 0, n),
		cols: make([]config.Rows, len(t.cols)),
	}
	for j := range t.cols {
		pl.cols[j] = t.cols[j].NewRows(n, 0)
	}
	if t.hasRules {
		pl.words = make([][]string, 0, n)
	}
	return pl
}

// prefix returns a frozen view of the first m rows (capacity-capped, so
// later appends to the parent can never write into it).
func (pl *tablePayload) prefix(m int) *tablePayload {
	np := &tablePayload{
		rows: pl.rows[:m:m],
		cols: make([]config.Rows, len(pl.cols)),
	}
	for j := range pl.cols {
		np.cols[j] = pl.cols[j].Prefix(m)
	}
	if pl.words != nil {
		np.words = pl.words[:m:m]
	}
	return np
}

// tail returns a fresh payload holding the rows from m on.
func (pl *tablePayload) tail(m int) *tablePayload {
	np := &tablePayload{
		rows: append([][]string(nil), pl.rows[m:]...),
		cols: make([]config.Rows, len(pl.cols)),
	}
	for j := range pl.cols {
		np.cols[j] = pl.cols[j].Tail(m)
	}
	if pl.words != nil {
		np.words = append([][]string(nil), pl.words[m:]...)
	}
	return np
}

// tableScratch is the reusable per-call query state. Query-derived
// references (profiles, cells, word sets) live in the per-miss
// queryState, not here: every scratch field is a persistent sub-scratch
// or a pointer-free buffer.
type tableScratch struct {
	//autofj:keep persistent blocking sub-scratch; holds only capacity and generation stamps, never query data
	sc        *blocking.TableScratch
	cands     []blocking.Candidate
	ballCands []blocking.Candidate
	kbuf      []byte // cache key: the record, or a multi-column row's composite key
	//autofj:keep persistent distance-kernel sub-scratch; rows are overwritten per pair and hold no references
	esc *config.EvalScratch
	// per program column, the tables of the fixed side of the current run
	// of pairs: the query of the candidate scan, the center of a ball fill
	sides  []config.Side
	drow   []float64
	crow   []float64
	ccut   []float64 // per configuration: a column's share of a cut
	bestD  []float64
	bestL  []int32  // per configuration: the joined row, -1 when none
	counts []uint32 // per configuration: the ball count of its joined row
	fill   []uint32 // per configuration: the ball counts of the row being filled
}

const (
	// maxTableSegments triggers a full rebuild when minor compactions have
	// piled up too many segments for the merge to stay cheap.
	maxTableSegments = 8
	// minMajorGarbage is the minimum number of tombstoned rows before a
	// dead-fraction-triggered full rebuild is worth it.
	minMajorGarbage = 32
)

// NewTable compiles a mutable serving table for the program. width is the
// row arity: 1 for single-column programs (each row is its single key
// cell), the reference table's column count for multi-column programs
// (and for the empty program of a multi-column search that selected no
// columns, which never matches). Every row must have exactly width cells;
// rows are copied, so callers may reuse their slices.
func (p *Program) NewTable(width int, rows [][]string, opt Options) (*Table, error) {
	return p.newTable(width, rows, opt, nil)
}

// newTable is NewTable. h, when not nil, is what the search that learned
// this single-column program built over the same rows (see Learn), and
// the table takes it instead of building it again.
func (p *Program) newTable(width int, rows [][]string, opt Options, h *learnedL) (*Table, error) {
	configs, err := p.configurations()
	if err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	multi := len(p.Columns) > 0
	if multi && len(p.Columns) != len(p.Weights) {
		return nil, errors.New("core: multi-column program has mismatched columns and weights")
	}
	if !multi && width != 1 {
		// A multi-column search that selects no columns learns an empty
		// program: it serves the reference table's full rows and never
		// matches.
		if len(configs) > 0 || width < 1 {
			return nil, fmt.Errorf("core: single-column program wants width 1, got %d", width)
		}
		multi = true
	}
	if width < 1 {
		return nil, fmt.Errorf("core: table width %d out of range", width)
	}
	for _, c := range p.Columns {
		if c < 0 || c >= width {
			return nil, fmt.Errorf("core: program column %d out of range for width %d", c, width)
		}
	}
	if err := checkRows(rows, width); err != nil {
		return nil, err
	}
	progJSON, err := p.Encode()
	if err != nil {
		return nil, err
	}

	beta := p.BlockingBeta
	if beta <= 0 {
		beta = DefaultBlockingBeta
	}

	t := &Table{
		progJSON:    progJSON,
		configs:     configs,
		multi:       multi,
		columns:     append([]int(nil), p.Columns...),
		weights:     append([]float64(nil), p.Weights...),
		rowWidth:    width,
		beta:        beta,
		radii:       make([]float64, len(configs)),
		parallelism: opt.Parallelism,
	}
	t.space = make([]config.JoinFunction, len(configs))
	for i, c := range configs {
		t.space[i] = c.Function
		t.radii[i] = ballRadius * c.Threshold
	}
	t.eval = config.NewEvaluator(t.space)

	ncols := 1
	if multi {
		ncols = len(p.Columns)
	}
	t.cols = make([]*config.Vocab, ncols)
	for j := range t.cols {
		t.cols[j] = config.NewVocab(t.space)
	}
	t.recs = make([]config.Counted, ncols)
	if ncols > 0 {
		t.reps = t.cols[0].IDFReps()
	}
	if len(p.NegativeRules) > 0 {
		t.rules = negrule.FreezeRules(p.NegativeRules)
		t.hasRules = t.rules.Len() > 0
	}
	if !multi {
		t.keyForms = t.cols[0].Forms()
	}
	if t.hasRules {
		t.keyForms |= textproc.LowerStemRemovePunct.Mask()
	}

	t.tix = blocking.NewTableIndex()
	t.delta = t.newPayload(0)
	if n := len(rows); n > 0 {
		pl := t.newPayload(n)
		t.appendRows(pl, rows, true, h, make([]config.Counted, min(n, config.BuildChunk)*ncols), t.parallelism)
		if h != nil {
			t.tix = h.index
		} else {
			t.tix = blocking.BuildTableIndex(t.keysOf(pl.rows), t.parallelism)
		}
		t.segs = append(t.segs, pl)
	}
	t.k = blocking.K(t.tix.Len(), t.beta)
	t.growBalls()
	t.cache = newQueryCache(opt.QueryCacheSize)
	t.gen.Store(1)
	t.pool.New = func() any {
		return &tableScratch{
			sc:     blocking.NewTableScratch(),
			esc:    t.eval.NewScratch(),
			sides:  make([]config.Side, len(t.cols)),
			drow:   make([]float64, len(t.configs)),
			crow:   make([]float64, len(t.configs)),
			ccut:   make([]float64, len(t.configs)),
			bestD:  make([]float64, len(t.configs)),
			bestL:  make([]int32, len(t.configs)),
			counts: make([]uint32, len(t.configs)),
			fill:   make([]uint32, len(t.configs)),
		}
	}
	return t, nil
}

// keyOf builds the blocking key of a full row.
func (t *Table) keyOf(row []string) string { return DisplayRow(row, t.multi) }

// keysOf builds the blocking keys of rows.
func (t *Table) keysOf(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = t.keyOf(row)
	}
	return keys
}

// processKey pre-processes a row's blocking key in one pass: under
// L+S+RP for its negative-rule word set when the table has rules, and
// under its column's stored options when it is a single cell. It returns
// the forms CountRecord takes, or nil for a multi-column table.
func (t *Table) processKey(f *textproc.Forms, key string) *textproc.Forms {
	if textproc.Process(f, key, t.keyForms); t.multi {
		return nil
	}
	return f
}

// cellOf selects program column j's cell of a full row.
func (t *Table) cellOf(row []string, j int) string {
	if !t.multi {
		return row[0]
	}
	return row[t.columns[j]]
}

// appendRows stores rows as the next rows of pl, each copied when copyRows
// is set (rows the caller owns), and counts them live. It is the one way
// rows enter a table (NewTable, Learn's handover, Add and a snapshot's
// delta rows), and the row builder a config.ProfileArena uses: records are
// counted (config.Vocab.CountRecord) one chunk at a time on up to
// parallelism workers, then each column's chunk is interned and stored in
// row order (config.Vocab.AppendChunk), and the vocabularies settle.
// recs holds a chunk's counted records, column j's at [j*chunk,
// (j+1)*chunk), so its length sets the chunk. h, when not nil, supplies
// the rows' processed strings and word sets (see learnedL).
func (t *Table) appendRows(pl *tablePayload, rows [][]string, copyRows bool, h *learnedL, recs []config.Counted, parallelism int) {
	n, first, chunk := len(rows), len(pl.rows), t.chunk(recs)
	pl.rows = slices.Grow(pl.rows, n)[:first+n]
	if t.hasRules {
		pl.words = slices.Grow(pl.words, n)[:first+n]
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(n, lo+chunk)
		// One worker counts inline: a sequential caller (Add) builds no
		// closure.
		if w := parallel.Workers(parallelism, hi-lo); w == 1 {
			t.countRows(pl, rows, copyRows, h, recs, first, lo, lo, hi)
		} else {
			parallel.Shard(hi-lo, w, func(_, start, end int) {
				t.countRows(pl, rows, copyRows, h, recs, first, lo, lo+start, lo+end)
			})
		}
		for j := range t.cols {
			t.cols[j].AppendChunk(&pl.cols[j], recs[j*chunk:j*chunk+hi-lo], parallelism)
		}
	}
	for j := range t.cols {
		t.cols[j].Settle()
	}
}

// chunk returns the rows per chunk of the counted records recs (see
// appendRows).
func (t *Table) chunk(recs []config.Counted) int { return max(len(recs)/max(len(t.cols), 1), 1) }

// countRows stores rows [start, end) of the chunk starting at row lo as
// rows first+i of pl (copies when copyRows is set), with their word sets,
// and counts each program column's cell into recs (laid out as appendRows
// says).
func (t *Table) countRows(pl *tablePayload, rows [][]string, copyRows bool, h *learnedL, recs []config.Counted, first, lo, start, end int) {
	chunk := t.chunk(recs)
	var f textproc.Forms
	for i := start; i < end; i++ {
		row := rows[i]
		if copyRows {
			row = append([]string(nil), row...)
		}
		pl.rows[first+i] = row
		var proc *textproc.Forms
		if h != nil {
			proc = &h.proc[i]
		} else if !t.multi || t.hasRules {
			proc = t.processKey(&f, t.keyOf(row))
		}
		for j := range t.cols {
			t.cols[j].CountRecord(&recs[j*chunk+i-lo], t.cellOf(row, j), proc)
		}
		if t.hasRules && h != nil {
			pl.words[first+i] = h.words[i]
		} else if t.hasRules {
			pl.words[first+i] = negrule.AppendWords(nil, f[textproc.LowerStemRemovePunct])
		}
	}
}

// growBalls (re)allocates the ball-count cache when the dense id space has
// outgrown it. Called under the write lock; entries restart cold.
func (t *Table) growBalls() {
	need := t.tix.Len()
	if need <= t.ballStride && t.balls != nil {
		return
	}
	stride := need + need/2 + 16
	t.ballStride = stride
	t.balls = make([]atomic.Uint64, max(len(t.configs), 1)*stride)
}

// Len returns the number of live reference rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tix.Len()
}

// RowWidth returns the exact number of cells rows and queries must have.
func (t *Table) RowWidth() int { return t.rowWidth }

// MultiColumn reports whether queries must arrive as rows (MatchRow)
// rather than single strings (Match).
func (t *Table) MultiColumn() bool { return t.multi }

// Program returns the configurations the table serves, in program order.
func (t *Table) Program() []Configuration {
	return append([]Configuration(nil), t.configs...)
}

// Generation returns the mutation generation: it increases on every add,
// remove, and compaction swap, always before the change is visible to
// queries. The result cache keys answers on (generation, query).
func (t *Table) Generation() uint64 { return t.gen.Load() }

// QueryCacheStats returns the cumulative hit/miss counters of the result
// cache: a hit returned a stored Match without scoring, a miss ran the
// full query path. Mutations turn previously-hot entries into misses
// (entries are generation-keyed), so a rising miss rate on a busy table
// usually tracks its mutation rate.
func (t *Table) QueryCacheStats() (hits, misses uint64) { return t.cache.stats() }

// QueryCacheLen returns the number of answers resident in the result
// cache, including those of older generations that can no longer hit.
func (t *Table) QueryCacheLen() int { return t.cache.len() }

// DeltaLen returns the number of uncompiled delta slots (tombstoned ones
// included) — the compaction pressure.
func (t *Table) DeltaLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tix.DeltaRows()
}

// SegmentCount returns the number of compiled segments.
func (t *Table) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tix.Segments()
}

// Rows returns the live reference rows in dense order — the order
// Match.Left indexes. The row slices are the table's own immutable
// storage; callers must not mutate them.
func (t *Table) Rows() [][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]string, t.tix.Len())
	for d := range out {
		pl, local := t.payload(t.tix.Ref(d))
		out[d] = pl.rows[local]
	}
	return out
}

// Row returns live reference row d (dense order). The slice is immutable
// shared storage.
func (t *Table) Row(d int) ([]string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if d < 0 || d >= t.tix.Len() {
		return nil, fmt.Errorf("core: row %d out of range [0, %d)", d, t.tix.Len())
	}
	pl, local := t.payload(t.tix.Ref(d))
	return pl.rows[local], nil
}

// Add appends rows to the reference table (into the mutable delta) and
// returns the new generation. Each row must have exactly RowWidth cells;
// rows are copied. Cost is proportional to the added rows plus, when they
// bring new tokens, one pass over the token vocabulary — never the table.
func (t *Table) Add(rows [][]string) (uint64, error) { return t.add(rows, true) }

// add is Add, storing the rows themselves unless copyRows is set: a
// snapshot's delta rows are already the loading table's own.
func (t *Table) add(rows [][]string, copyRows bool) (uint64, error) {
	if err := checkRows(rows, t.rowWidth); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		t.tix.AddDelta(t.keyOf(row))
	}
	//autofj:blocking at parallelism 1 the builder counts and interns inline: no goroutine is started or waited on under the lock
	t.appendRows(t.delta, rows, copyRows, nil, t.recs, 1)
	t.k = blocking.K(t.tix.Len(), t.beta)
	t.statsGen++
	t.growBalls()
	return t.gen.Add(1), nil
}

// Remove tombstones the rows at the given dense indices (as reported by
// Match.Left against the CURRENT generation) and returns the new
// generation. Remaining rows are renumbered contiguously, preserving
// their relative order — exactly the numbering a full recompile of the
// surviving rows would use.
func (t *Table) Remove(indices []int) (uint64, error) {
	if len(indices) == 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.gen.Load(), nil
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.tix.Len()
	for i, d := range sorted {
		if d < 0 || d >= n {
			return 0, fmt.Errorf("core: row %d out of range [0, %d)", d, n)
		}
		if i > 0 && sorted[i-1] == d {
			return 0, fmt.Errorf("core: duplicate row %d in removal", d)
		}
	}
	for _, d := range sorted {
		pl, local := t.payload(t.tix.Ref(d))
		for j := range t.cols {
			t.cols[j].Count(&pl.cols[j], int(local), -1)
		}
		t.tix.RemoveDense(d)
	}
	for j := range t.cols {
		t.cols[j].Settle()
	}
	t.tix.Renumber()
	t.k = blocking.K(t.tix.Len(), t.beta)
	t.statsGen++
	return t.gen.Add(1), nil
}

// Compact seals the current delta into a new compiled segment, building
// the segment OFF the serving path (queries keep running against the old
// layout) and swapping it in atomically under the write lock. When the
// delta is empty but tombstones or segment count have piled up, it instead
// attempts a full rebuild of the live rows, aborting harmlessly if a
// mutation lands mid-build. Returns whether a swap happened. At most one
// compaction runs at a time; concurrent calls return (false, nil).
//
// Compaction never changes query results — rows, dense ids, statistics,
// and candidates are all preserved — but it still bumps the generation,
// keeping the "every swap bumps" contract simple for cache layers.
func (t *Table) Compact(ctx context.Context) (bool, error) {
	t.mu.Lock()
	m := t.tix.DeltaRows()
	if t.compacting || m == 0 && !t.needsMajorLocked() {
		t.mu.Unlock()
		return false, nil
	}
	t.compacting = true
	rows := t.delta.rows[:m:m]
	t.mu.Unlock()
	if m == 0 {
		return t.compactMajor(ctx)
	}

	seg := blocking.BuildSegment(t.keysOf(rows), t.parallelism)
	if err := ctx.Err(); err != nil {
		t.endCompaction()
		return false, err
	}

	t.mu.Lock()
	t.tix.CompactDelta(m, seg)
	t.segs = append(t.segs, t.delta.prefix(m))
	t.delta = t.delta.tail(m)
	t.gen.Add(1)
	// Fold accumulated segments and tombstones right away, still holding
	// the compaction.
	needMajor := t.needsMajorLocked()
	t.compacting = needMajor
	t.mu.Unlock()
	if needMajor {
		_, err := t.compactMajor(ctx)
		return true, err
	}
	return true, nil
}

func (t *Table) endCompaction() {
	t.mu.Lock()
	t.compacting = false
	t.mu.Unlock()
}

// needsMajorLocked reports whether a full rebuild is worth it: too many
// segments, or a majority of stored rows are tombstones.
func (t *Table) needsMajorLocked() bool {
	stored := t.tix.Stored()
	if stored == 0 {
		return false
	}
	dead := stored - t.tix.Len()
	return t.tix.Segments() > maxTableSegments ||
		(dead >= minMajorGarbage && dead*2 > stored)
}

// compactMajor rebuilds the whole table as one segment from the live rows.
// The snapshot is taken under a read lock, the build runs unlocked, and
// the swap only happens if no mutation landed in between (checked by
// generation); otherwise it aborts with no effect. Caller must have set
// t.compacting.
func (t *Table) compactMajor(ctx context.Context) (bool, error) {
	t.mu.RLock()
	genStart := t.gen.Load()
	n := t.tix.Len()
	npl := t.newPayload(n)
	for d := 0; d < n; d++ {
		pl, local := t.payload(t.tix.Ref(d))
		npl.rows = append(npl.rows, pl.rows[local])
		for j := range t.cols {
			npl.cols[j].AppendRow(&pl.cols[j], int(local))
		}
		if t.hasRules {
			npl.words = append(npl.words, pl.words[local])
		}
	}
	t.mu.RUnlock()

	ntix := blocking.BuildTableIndex(t.keysOf(npl.rows), t.parallelism)
	if err := ctx.Err(); err != nil {
		t.endCompaction()
		return false, err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.compacting = false
	if t.gen.Load() != genStart {
		return false, nil // raced with a mutation; retry on a later Compact
	}
	t.tix = ntix
	t.segs = []*tablePayload{npl}
	t.delta = t.newPayload(0)
	t.gen.Add(1)
	return true, nil
}

// payload resolves a Ref to its storage.
//
//autofj:hotpath
func (t *Table) payload(ref blocking.Ref) (*tablePayload, int32) {
	if ref.Seg >= 0 {
		return t.segs[ref.Seg], ref.Local
	}
	return t.delta, ref.Local
}

// rowDists fills ms.drow with the distance under every configuration whose
// group is in mask between the fixed side (a prepared record per program
// column, and its full row) and row local of pl, or +Inf where a bound
// puts it past cut (see config.Evaluator.RowDistances). Multi-column distances keep the
// learned tensor semantics: per-column float32 rounding and maximal
// distance for two missing cells. As terms are non-negative, a column
// skips when its term alone is past the cut (ccut leaves room for the
// rounding).
//
//autofj:hotpath
func (t *Table) rowDists(ms *tableScratch, fixed []config.Fixed, fixedRow []string, pl *tablePayload, local int32, mask config.GroupMask, cut []float64) {
	if !t.multi {
		t.eval.RowDistances(&fixed[0], &pl.cols[0], int(local), mask, cut, ms.esc, ms.drow)
		return
	}
	clear(ms.drow)
	for j := range t.cols {
		if t.cellOf(pl.rows[local], j) == "" && t.cellOf(fixedRow, j) == "" {
			for ci := range ms.drow {
				ms.drow[ci] += t.weights[j]
			}
			continue
		}
		for ci, c := range cut {
			ms.ccut[ci] = c / t.weights[j] * (1 + 1e-6)
		}
		t.eval.RowDistances(&fixed[j], &pl.cols[j], int(local), mask, ms.ccut, ms.esc, ms.crow)
		for ci := range ms.drow {
			ms.drow[ci] += t.weights[j] * float64(float32(ms.crow[ci]))
		}
	}
}

// ballCounts sets ms.counts[ci] to the 2θ-ball cardinality of row
// ms.bestL[ci] under configuration ci, for every configuration that joined
// (bestL >= 0). A slot tagged with the current statistics generation is
// read from the ball cache. Each distinct row with cold slots is filled
// once, under the groups of the configurations that joined to it cold.
//
//autofj:hotpath
func (t *Table) ballCounts(ms *tableScratch) {
	tag := uint64(t.statsGen) << 32
	for ci, l := range ms.bestL {
		if l >= 0 {
			ms.counts[ci] = t.cachedBall(ci, l, tag)
		}
	}
	for ci, l := range ms.bestL {
		if l < 0 || ms.counts[ci] != 0 {
			continue
		}
		var mask config.GroupMask
		for cj := ci; cj < len(ms.bestL); cj++ {
			if ms.bestL[cj] == l && ms.counts[cj] == 0 {
				mask |= t.eval.Group(cj)
			}
		}
		t.fillBalls(l, mask, tag, ms)
		for cj := ci; cj < len(ms.bestL); cj++ {
			if ms.bestL[cj] == l && ms.counts[cj] == 0 {
				ms.counts[cj] = ms.fill[cj]
			}
		}
	}
}

// cachedBall returns the cached ball count of dense row l under
// configuration ci, or 0 when its slot does not carry tag (a stored count
// is at least 1).
//
//autofj:hotpath
func (t *Table) cachedBall(ci int, l int32, tag uint64) uint32 {
	v := t.balls[ci*t.ballStride+int(l)].Load()
	if v&^uint64(0xffffffff) != tag {
		return 0
	}
	return uint32(v)
}

// fillBalls counts the balls of dense row l under every configuration
// whose group is in mask, in one pass — one self-blocking call, l
// prepared once as the fixed side, and one evaluator row per ball
// candidate that scores only mask's groups, compared against the radii —
// and stores those counts in ms.fill and in the ball cache, tagged with
// the statistics generation, so mutations invalidate them wholesale and
// the other configurations of those groups, in this query or a later one,
// hit. The slots of every other configuration are left as they were:
// their entries of ms.drow (and, multi-column, of ms.crow) hold stale
// distances, and their counts in ms.fill are meaningless. ms.drow/ms.crow
// and ms.sides are free here: ball counts are only taken after the
// candidate scan has finished with them. Values are deterministic, so
// concurrent fills under any masks are benign.
//
//autofj:hotpath
func (t *Table) fillBalls(l int32, mask config.GroupMask, tag uint64, ms *tableScratch) {
	ms.ballCands = t.tix.AppendTopKSelf(ms.ballCands[:0], ms.sc, int(l), t.k)
	apl, alocal := t.payload(t.tix.Ref(int(l)))
	var one [1]config.Fixed
	centers := one[:]
	if t.multi {
		//autofj:alloc-ok one slot per program column per multi-column fill; the single-column center stays on the stack
		centers = make([]config.Fixed, len(t.cols))
	}
	for j, vocab := range t.cols {
		centers[j] = vocab.PrepareRow(&ms.sides[j], &apl.cols[j], int(alocal), mask, true)
	}
	for ci := range ms.fill {
		ms.fill[ci] = 1
	}
	for _, c := range ms.ballCands {
		bpl, blocal := t.payload(t.tix.Ref(int(c.ID)))
		t.rowDists(ms, centers, apl.rows[alocal], bpl, blocal, mask, t.radii)
		countBallRow(ms.fill, ms.drow, t.radii)
	}
	ms.releaseSides()
	for ci, n := range ms.fill {
		if mask&t.eval.Group(ci) != 0 {
			t.balls[ci*t.ballStride+int(l)].Store(tag | uint64(n))
		}
	}
}

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
// statistics; score releases the sides after its candidate scan. Caller
// must hold the read lock (the query reads the live vocabulary).
func (t *Table) fillQuery(ms *tableScratch, row []string) *queryState {
	e := &queryState{}
	key := t.keyOf(row)
	var f textproc.Forms
	proc := t.processKey(&f, key)
	ms.cands = t.tix.AppendTopK(ms.cands[:0], ms.sc, key, t.k)
	e.cands = make([]int32, 0, len(ms.cands))
	var qwords []string
	if t.hasRules {
		qwords = negrule.AppendWords(nil, f[textproc.LowerStemRemovePunct])
	}
	for _, c := range ms.cands {
		if t.hasRules {
			if pl, local := t.payload(t.tix.Ref(int(c.ID))); t.rules.BlocksPair(pl.words[local], qwords) {
				continue
			}
		}
		e.cands = append(e.cands, c.ID)
	}
	if e.fixed = e.fixed1[:]; t.multi {
		e.fixed = make([]config.Fixed, len(t.cols))
	}
	for j, vocab := range t.cols {
		e.fixed[j] = vocab.PrepareQuery(&ms.sides[j], t.cellOf(row, j), proc, config.AllGroups)
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
	if len(t.configs) == 0 || t.tix.Len() == 0 {
		return noMatch(), false
	}
	gen := t.gen.Load()
	if t.multi {
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
	if t.multi {
		//autofj:alloc-ok cache-fill edge: the composite key string is materialized once per (generation, distinct row)
		key = string(ms.kbuf)
	}
	t.cache.store(key, gen, best)
	return best, false
}

// score runs the query path proper over a filled query of row: the
// per-configuration closest-candidate scans and the learning-faithful
// union resolution of Algorithm 1. A pair-major scan with a strict <
// keeps the first minimum in blocking order; conflicting configurations
// resolve toward the join with the higher estimated precision. Each
// configuration's bestD starts just past θ (at unjoinableDist when that
// is lower), so only a candidate that joins becomes bestL; bestD is also
// the cut of the candidate's char kernels (see rowDists).
//
//autofj:hotpath
func (t *Table) score(ms *tableScratch, e *queryState, row []string) Match {
	for ci, c := range t.configs {
		ms.bestL[ci] = -1
		ms.bestD[ci] = min(math.Nextafter(c.Threshold, math.Inf(1)), unjoinableDist)
	}
	for _, l := range e.cands {
		pl, local := t.payload(t.tix.Ref(int(l)))
		t.rowDists(ms, e.fixed, row, pl, local, config.AllGroups, ms.bestD)
		for ci, d := range ms.drow {
			if d < ms.bestD[ci] {
				ms.bestD[ci] = d
				ms.bestL[ci] = l
			}
		}
	}
	ms.releaseSides()
	t.ballCounts(ms)
	best := noMatch()
	for ci := range t.configs {
		bl, bd := ms.bestL[ci], ms.bestD[ci]
		if bl < 0 {
			continue
		}
		pr := 1 / float64(ms.counts[ci])
		switch {
		case best.Left < 0:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		case best.Left == int(bl):
			if pr > best.Precision {
				best.Precision = pr
			}
		case pr > best.Precision:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		}
	}
	return best
}

func (t *Table) getScratch() *tableScratch { return t.pool.Get().(*tableScratch) }

// putScratch returns a scratch to the pool. Query-derived references
// live in the per-miss queryState and a ball center's strings on the
// stack, never in the scratch, whose sides hold released weight tables
// only (TestTableScratchRetainsNoQueryMemory).
//
//autofj:hotpath
func (t *Table) putScratch(ms *tableScratch) { t.pool.Put(ms) }

// Match matches one query record, returning the join (if any) with its
// distance and unsupervised precision estimate. Safe for concurrent use;
// the answer is consistent with one single generation of the table.
func (t *Table) Match(ctx context.Context, record string) (Match, bool, error) {
	if t.multi {
		return noMatch(), false, errNeedRow
	}
	return t.MatchRow(ctx, []string{record})
}

// MatchRow matches one full row of exactly RowWidth cells. On a
// multi-column table the whole row forms the blocking key, so a different
// arity would silently change the key shape the program was learned on.
func (t *Table) MatchRow(ctx context.Context, row []string) (Match, bool, error) {
	if len(row) != t.rowWidth {
		return noMatch(), false, fmt.Errorf("core: table wants rows with %d cells, got %d", t.rowWidth, len(row))
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
	if err := checkRows(rows, t.rowWidth); err != nil {
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
	if t.multi {
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

// TableBatch is a batch answer bound to the generation that produced it:
// the matches, the matched reference rows (aligned; nil where unmatched —
// valid immutable snapshots even after later mutations), whether each
// answer came from the result cache, and the generation, taken atomically
// under one read lock.
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
			pl, local := t.payload(t.tix.Ref(m.Left))
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
	parallel.Shard(n, parallel.Workers(t.parallelism, n), func(_, start, end int) {
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
		if t.multi {
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
