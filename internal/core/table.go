package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
)

// Table is a join program compiled against a MUTABLE reference table,
// queried through Match/MatchRow/MatchBatch/MatchRows/MatchStream. It is
// the one query engine: Matcher (what Learn and Program.Compile return)
// is an alias of it. Its rows live in its row store (rowStore: segments,
// delta, blocking index, vocabularies), and the Table is the query layer
// over the store's read view: the program, k, the IDF run sums, the
// result cache and the generation. Add costs O(rows + V) — the added
// rows, plus one pass over the V-slot token vocabulary when they bring
// new tokens — never |L|. Remove tombstones the touched rows, then
// renumbers the dense ids with one pass over every stored row, so it is
// linear in the stored table. Background Compact seals the delta into a
// new segment off the serving path, swapping it in atomically.
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
//     candidates, with the joined row prepared as the fixed side, one
//     evaluator group at a time and only as far as the union resolution
//     needs (see resolve). A miss counts every ball it reads from its own
//     state, so no count outlives the miss or a mutation.
//
// Concurrency: queries take a read lock for their whole (batch) duration;
// Add/Remove/compaction swaps take the write lock, which guards the store
// too. The generation moves when the live rows change, never on
// compaction: Add and Remove move it before the lock is released, so a
// cache keyed on it can never serve a stale table. It keys the result
// cache and the IDF run sums (config.SumCache, by its low 32 bits, which
// wrap after ~4 billion mutations: a wrapped tag could revive a stale Sum
// for the set bound, which we accept).
type Table struct {
	progJSON []byte
	configs  []Configuration
	weights  []float64
	eval     *config.Evaluator
	rules    *negrule.Frozen // nil when the program has no negative rules

	mu    sync.RWMutex
	store rowStore
	// sums holds, per program column, the IDF Sum and Norm of the stored
	// runs by dense row, kept under the generation, for the set bound of
	// the candidate scan and ball counts (config.Cut).
	sums []*config.SumCache

	// cache is the result cache, keyed by the generation: a repeated
	// query surface form returns its stored Match. Entries fill
	// under the read lock at the generation they observe and read as
	// misses after any mutation, so the table can never serve an answer
	// computed against older rows, dense ids, or IDF weights.
	cache *queryCache

	gen   atomic.Uint64
	pool  sync.Pool // *tableScratch
	radii []float64 // per-configuration ball radius, 2θ

	beta        float64
	parallelism int
	k           int
	compacting  bool
}

// NewTable compiles a mutable serving table for the program. width is the
// row arity: 1 for single-column programs (each row is its single key
// cell), the reference table's column count for multi-column programs
// (and for the empty program of a multi-column search that selected no
// columns, which never matches). Every row must have exactly width cells;
// rows are copied, so callers may reuse their slices.
func (p *Program) NewTable(width int, rows [][]string, opt Options) (*Table, error) {
	return p.newTable(width, opt, func(s *rowStore) error { return s.build(rows, nil, opt.Parallelism) })
}

// newTable is the one constructor of a table: it checks the program
// against width and opt, fills an empty store (a build, Learn's handover
// or a snapshot's decode) and builds the query layer around it.
func (p *Program) newTable(width int, opt Options, fill func(*rowStore) error) (*Table, error) {
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
	progJSON, err := p.Encode()
	if err != nil {
		return nil, err
	}
	space := make([]config.JoinFunction, len(configs))
	radii := make([]float64, len(configs))
	for i, c := range configs {
		space[i] = c.Function
		radii[i] = ballRadius * c.Threshold
	}
	rules := negrule.FreezeRules(p.NegativeRules)
	if rules.Len() == 0 {
		rules = nil
	}

	columns := []int{0} // a single-column table's one cell
	if multi {
		columns = slices.Clone(p.Columns)
	}
	s := newRowStore(space, columns, width, multi, rules != nil)
	if err := fill(&s); err != nil {
		return nil, err
	}
	beta := p.BlockingBeta
	if beta <= 0 {
		beta = DefaultBlockingBeta
	}
	t := &Table{
		progJSON:    progJSON,
		configs:     configs,
		weights:     append([]float64(nil), p.Weights...),
		eval:        config.NewEvaluator(space),
		rules:       rules,
		store:       s,
		cache:       newQueryCache(opt.QueryCacheSize),
		radii:       radii,
		beta:        beta,
		parallelism: opt.Parallelism,
	}
	t.sums = make([]*config.SumCache, len(s.cols))
	for j, v := range s.cols {
		t.sums[j] = v.NewSumCache()
	}
	t.fit() // generation 1
	t.pool.New = func() any {
		return &tableScratch{
			sc:    blocking.NewTableScratch(),
			esc:   t.eval.NewScratch(),
			sides: make([]config.Side, len(t.store.cols)),
			drow:  make([]float64, len(t.configs)),
			crow:  make([]float64, len(t.configs)),
			ccut:  make([]float64, len(t.configs)),
			bestD: make([]float64, len(t.configs)),
			bestL: make([]int32, len(t.configs)),
		}
	}
	return t, nil
}

// fit follows a change to the live rows: it moves the generation, making
// every cached answer and run sum stale, and sizes k and the sum caches.
func (t *Table) fit() uint64 {
	g := t.gen.Add(1)
	n := t.store.tix.Len()
	for _, c := range t.sums {
		c.Fit(n, uint32(g))
	}
	t.k = blocking.K(n, t.beta)
	return g
}

// Len returns the number of live reference rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.tix.Len()
}

// RowWidth returns the exact number of cells rows and queries must have.
func (t *Table) RowWidth() int { return t.store.width }

// MultiColumn reports whether queries must arrive as rows (MatchRow)
// rather than single strings (Match).
func (t *Table) MultiColumn() bool { return t.store.multi }

// Program returns the configurations the table serves, in program order.
func (t *Table) Program() []Configuration {
	return append([]Configuration(nil), t.configs...)
}

// Generation returns the table generation, 1 for a new or loaded table:
// it moves when the live rows change, never on compaction, always before
// the change is visible to queries. The result cache keys answers on it.
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
	return t.store.tix.DeltaRows()
}

// SegmentCount returns the number of compiled segments.
func (t *Table) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.tix.Segments()
}

// Rows returns the live reference rows in dense order — the order
// Match.Left indexes. The row slices are the table's own immutable
// storage; callers must not mutate them.
func (t *Table) Rows() [][]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.rows()
}

// Row returns live reference row d (dense order). The slice is immutable
// shared storage.
func (t *Table) Row(d int) ([]string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.store.row(d)
}

// Add appends rows to the reference table (into the mutable delta) and
// returns the new generation. Each row must have exactly RowWidth cells;
// rows are copied. Cost is proportional to the added rows plus, when they
// bring new tokens, one pass over the token vocabulary — never the table.
// Adding no rows changes nothing and returns the current generation.
func (t *Table) Add(rows [][]string) (uint64, error) {
	if err := checkRows(rows, t.store.width); err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return t.gen.Load(), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	//autofj:blocking at parallelism 1 the builder counts and interns inline: no goroutine is started or waited on under the lock
	t.store.add(rows, make([]string, len(rows)*t.store.width))
	return t.fit(), nil
}

// Remove tombstones the rows at the given dense indices (as reported by
// Match.Left against the CURRENT generation) and returns the new
// generation. Remaining rows are renumbered contiguously, preserving
// their relative order — exactly the numbering a full recompile of the
// surviving rows would use.
func (t *Table) Remove(indices []int) (uint64, error) {
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(sorted) == 0 {
		return t.gen.Load(), nil
	}
	if err := t.store.remove(sorted); err != nil {
		return 0, err
	}
	return t.fit(), nil
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
// and candidates are all preserved — so it moves no generation, and every
// cached answer and run sum survives it.
func (t *Table) Compact(ctx context.Context) (bool, error) {
	t.mu.Lock()
	rows := t.store.pending()
	if t.compacting || len(rows) == 0 && !t.store.needsMajor() {
		t.mu.Unlock()
		return false, nil
	}
	t.compacting = true
	t.mu.Unlock()
	if len(rows) == 0 {
		return t.compactMajor(ctx)
	}

	seg := t.store.segment(rows, t.parallelism)
	if err := ctx.Err(); err != nil {
		t.endCompaction()
		return false, err
	}

	t.mu.Lock()
	t.store.seal(seg)
	// Fold accumulated segments and tombstones right away, still holding
	// the compaction.
	needMajor := t.store.needsMajor()
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

// compactMajor rebuilds the whole table as one segment from the live rows.
// The copy is taken under a read lock, the build runs unlocked, and
// the swap only happens if no mutation landed in between (checked by
// generation); otherwise it aborts with no effect. Caller must have set
// t.compacting.
func (t *Table) compactMajor(ctx context.Context) (bool, error) {
	t.mu.RLock()
	genStart := t.gen.Load()
	pl := t.store.live()
	t.mu.RUnlock()

	tix := t.store.index(pl, t.parallelism)
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
	t.store.replace(tix, pl)
	return true, nil
}
