package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// compiledProgram is the serving state of one program version: the
// mutable reference table (segments + delta) under its name and version.
// Swap-in replaces the whole value behind an atomic pointer; row
// mutations go through the table itself and bump its generation.
type compiledProgram struct {
	name  string
	table *core.Table
	gen   uint64 // monotonically increasing per program name
}

// program is one registry slot: the current compiled version and the
// per-program counters, which survive hot swaps and go with the slot.
type program struct {
	name    string
	cur     atomic.Pointer[compiledProgram]
	queries atomic.Uint64
	matched atomic.Uint64
}

// Registry holds the named programs of a daemon and runs the background
// compactor. All methods are safe for concurrent use; the data path
// (Query) takes only a read lock on the name table, and a program's
// compiled state is swapped atomically so re-registration never blocks or
// drops in-flight traffic. Reference tables mutate in place
// (AddRows/RemoveRows): each mutation bumps the table generation, so the
// table's generation-keyed cache entries of the old state can never hit
// again.
type Registry struct {
	cfg     Config
	opt     core.Options
	metrics *Metrics

	mu    sync.RWMutex
	progs map[string]*program

	// sem bounds the table calls in flight to GOMAXPROCS: more would only
	// queue on the CPUs. Close takes every slot, so holding all of them
	// means no admitted call is still running.
	sem chan struct{}
	// queue admits the callers waiting for a slot of sem, at most
	// maxTableWaiters at once.
	queue chan struct{}

	compactKick chan struct{}

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewRegistry builds an empty registry and starts its background
// compactor. Programs listed in cfg.Programs are NOT loaded here — call
// Register for each so callers decide how to surface per-program load
// errors.
func NewRegistry(cfg Config, metrics *Metrics) *Registry {
	r := &Registry{
		cfg:         cfg,
		opt:         core.Options{Parallelism: cfg.Parallelism},
		metrics:     metrics,
		progs:       make(map[string]*program),
		sem:         make(chan struct{}, runtime.GOMAXPROCS(0)),
		queue:       make(chan struct{}, maxTableWaiters),
		compactKick: make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	r.wg.Add(1)
	go r.compactor()
	return r
}

// Metrics returns the registry's metrics sink.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Register compiles the spec and installs it under its name: a new name
// gets a fresh slot; an existing name is hot-swapped — the compiled
// pointer is replaced atomically, the generation advances, the old
// table's cache goes with the old table (so its results can never be
// served), and in-flight queries finish on the version they started
// with. Compilation happens before any lock is taken, so serving
// continues at full speed while a replacement builds.
func (r *Registry) Register(spec ProgramSpec) error {
	if r.stopped.Load() {
		return ErrShuttingDown
	}
	cp, err := spec.resolve(r.opt)
	if err != nil {
		return err
	}

	r.mu.Lock()
	p, exists := r.progs[spec.Name]
	if !exists {
		p = &program{name: spec.Name}
		r.progs[spec.Name] = p
	}
	old := p.cur.Load()
	if old != nil {
		cp.gen = old.gen + 1
	}
	p.cur.Store(cp)
	r.mu.Unlock()
	r.metrics.swaps.Add(1)
	return nil
}

// Remove drops a program. In-flight queries finish (they already hold
// the compiled state); later queries get ErrUnknownProgram.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	_, ok := r.progs[name]
	delete(r.progs, name)
	r.mu.Unlock()
	return ok
}

func (r *Registry) get(name string) *program {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.progs[name]
}

// snapshotProgs copies the slot list so slow per-program work (listing,
// compaction) runs outside the name-table lock.
func (r *Registry) snapshotProgs() []*program {
	r.mu.RLock()
	defer r.mu.RUnlock()
	progs := make([]*program, 0, len(r.progs))
	for _, p := range r.progs {
		progs = append(progs, p)
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].name < progs[j].name })
	return progs
}

// ProgramInfo is one row of the registry listing.
type ProgramInfo struct {
	Name            string  `json:"name"`
	Records         int     `json:"records"`
	MultiColumn     bool    `json:"multi_column"`
	RowWidth        int     `json:"row_width"`
	Generation      uint64  `json:"generation"`
	TableGeneration uint64  `json:"table_generation"`
	DeltaRows       int     `json:"delta_rows"`
	Segments        int     `json:"segments"`
	Queries         uint64  `json:"queries"`
	Matched         uint64  `json:"matched"`
	MatchRate       float64 `json:"match_rate"`
	CacheLen        int     `json:"cache_entries"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
}

// Programs lists the registered programs, sorted by name.
func (r *Registry) Programs() []ProgramInfo {
	progs := r.snapshotProgs()
	out := make([]ProgramInfo, 0, len(progs))
	for _, p := range progs {
		cp := p.cur.Load()
		if cp == nil {
			continue
		}
		info := ProgramInfo{
			Name:            p.name,
			Records:         cp.table.Len(),
			MultiColumn:     cp.table.MultiColumn(),
			RowWidth:        cp.table.RowWidth(),
			Generation:      cp.gen,
			TableGeneration: cp.table.Generation(),
			DeltaRows:       cp.table.DeltaLen(),
			Segments:        cp.table.SegmentCount(),
			Queries:         p.queries.Load(),
			Matched:         p.matched.Load(),
			CacheLen:        cp.table.QueryCacheLen(),
		}
		info.CacheHits, info.CacheMisses = cp.table.QueryCacheStats()
		if info.Queries > 0 {
			info.MatchRate = float64(info.Matched) / float64(info.Queries)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// QueryResult is one answered query. Fields are ordered pointer-width
// first so the struct packs to 56 bytes instead of 64 (fieldalign).
type QueryResult struct {
	Match     core.Match
	LeftValue string // display value of the matched reference record
	OK        bool
	Cached    bool
}

// Query answers one query row against the named program. row carries
// exactly one cell for single-column programs and the reference table's
// arity for multi-column ones. The answer is bit-identical to
// Table.Match against the answering table state; Cached reports that the
// table's result cache held it.
func (r *Registry) Query(ctx context.Context, name string, row []string) (QueryResult, error) {
	start := time.Now()
	res, err := r.QueryBatch(ctx, name, [][]string{row})
	r.metrics.lat.observe(time.Since(start))
	if err != nil {
		return QueryResult{}, err
	}
	return res[0], nil
}

// QueryBatch answers a pre-assembled batch in one table call, under one
// generation. rows must all have the program's RowWidth — validated here,
// because the table rejects a whole batch on one malformed row.
func (r *Registry) QueryBatch(ctx context.Context, name string, rows [][]string) (out []QueryResult, err error) {
	r.metrics.requests.Add(uint64(len(rows)))
	defer func() {
		if err != nil {
			r.metrics.failures.Add(uint64(len(rows)))
		}
	}()
	if r.stopped.Load() {
		return nil, ErrShuttingDown
	}
	p := r.get(name)
	if p == nil {
		return nil, ErrUnknownProgram
	}
	cp := p.cur.Load()
	for _, row := range rows {
		if want := cp.table.RowWidth(); len(row) != want {
			return nil, &ArityError{Program: name, Want: want, Got: len(row)}
		}
	}
	// MatchBatchAt returns the matches, the matched reference rows, and
	// the cache verdicts under ONE read lock, so each result renders its
	// display value from the exact state that answered — a concurrent
	// AddRows/RemoveRows/Compact can never tear a result.
	tb, err := r.match(ctx, cp.table, rows)
	if err != nil {
		return nil, err
	}
	multi := cp.table.MultiColumn()
	out = make([]QueryResult, len(tb.Matches))
	matched := uint64(0)
	for i, m := range tb.Matches {
		out[i] = QueryResult{Match: m, OK: m.Left >= 0, Cached: tb.Cached[i]}
		if out[i].OK {
			out[i].LeftValue = core.DisplayRow(tb.Rows[i], multi)
			matched++
		}
	}
	p.queries.Add(uint64(len(rows)))
	p.matched.Add(matched)
	return out, nil
}

// maxTableWaiters caps the callers parked for a table slot (see
// Registry.sem). A caller past it is refused at once with ErrOverloaded
// instead of holding its goroutine and decoded request while it waits.
// 64 is far above the concurrency the daemon's tests and benchmark drive
// (at most 8 concurrent callers; 2 benchmark clients).
const maxTableWaiters = 64

// match runs one table call inside the in-flight bound. A caller that
// finds no free slot waits for one, unless maxTableWaiters callers are
// already waiting; a waiting caller leaves when its context ends or the
// registry starts shutting down.
func (r *Registry) match(ctx context.Context, tab *core.Table, rows [][]string) (*core.TableBatch, error) {
	select {
	case r.sem <- struct{}{}:
	default:
		if err := r.wait(ctx); err != nil {
			return nil, err
		}
	}
	defer func() { <-r.sem }()
	if r.stopped.Load() { // the slot was won in a race with Close
		return nil, ErrShuttingDown
	}
	return tab.MatchBatchAt(ctx, rows)
}

// wait parks the caller until it takes a table slot, as one of at most
// maxTableWaiters waiters.
func (r *Registry) wait(ctx context.Context) error {
	select {
	case r.queue <- struct{}{}:
		defer func() { <-r.queue }()
	default:
		return ErrOverloaded
	}
	select {
	case r.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.stop:
		return ErrShuttingDown
	}
}

// TableUpdate reports the outcome of a reference-table mutation: the new
// table generation (every result produced under an older generation is
// already unreachable in the table's cache by the time this returns) and
// the resulting table shape.
type TableUpdate struct {
	Program    string `json:"program"`
	Generation uint64 `json:"generation"`
	Records    int    `json:"records"`
	DeltaRows  int    `json:"delta_rows"`
}

// AddRows appends reference rows to the named program's table in place —
// no recompile, no swap. New rows are queryable as soon as this returns;
// the generation bump turns every cached answer of the old state into a
// miss.
func (r *Registry) AddRows(name string, rows [][]string) (TableUpdate, error) {
	cp, err := r.forMutation(name)
	if err != nil {
		return TableUpdate{}, err
	}
	for _, row := range rows {
		if want := cp.table.RowWidth(); len(row) != want {
			return TableUpdate{}, &ArityError{Program: name, Want: want, Got: len(row)}
		}
	}
	gen, err := cp.table.Add(rows)
	if err != nil {
		return TableUpdate{}, err
	}
	return r.mutated(cp, gen), nil
}

// RemoveRows tombstones reference rows by their current dense indexes
// (the Left values answers report). Indexes must be unique; later rows
// shift down, exactly like a recompile without them.
func (r *Registry) RemoveRows(name string, indices []int) (TableUpdate, error) {
	cp, err := r.forMutation(name)
	if err != nil {
		return TableUpdate{}, err
	}
	gen, err := cp.table.Remove(indices)
	if err != nil {
		return TableUpdate{}, err
	}
	return r.mutated(cp, gen), nil
}

// CompactNow forces one compaction round on the named program's table,
// reporting whether anything was rewritten. The background compactor
// calls the same table method; this is the operator's handle.
func (r *Registry) CompactNow(ctx context.Context, name string) (bool, TableUpdate, error) {
	cp, err := r.forMutation(name)
	if err != nil {
		return false, TableUpdate{}, err
	}
	did, err := cp.table.Compact(ctx)
	if err != nil {
		return false, TableUpdate{}, err
	}
	upd := TableUpdate{
		Program:    name,
		Generation: cp.table.Generation(),
		Records:    cp.table.Len(),
		DeltaRows:  cp.table.DeltaLen(),
	}
	if did {
		r.metrics.compactions.Add(1)
	}
	return did, upd, nil
}

func (r *Registry) forMutation(name string) (*compiledProgram, error) {
	if r.stopped.Load() {
		return nil, ErrShuttingDown
	}
	p := r.get(name)
	if p == nil {
		return nil, ErrUnknownProgram
	}
	return p.cur.Load(), nil
}

// mutated is the post-mutation bookkeeping: count the mutation and nudge
// the compactor.
func (r *Registry) mutated(cp *compiledProgram, gen uint64) TableUpdate {
	r.metrics.mutations.Add(1)
	select {
	case r.compactKick <- struct{}{}:
	default:
	}
	return TableUpdate{
		Program:    cp.name,
		Generation: gen,
		Records:    cp.table.Len(),
		DeltaRows:  cp.table.DeltaLen(),
	}
}

// compactInterval is the backstop cadence of the background compactor;
// mutations kick it immediately, the ticker catches anything missed.
const compactInterval = time.Second

// compactor is the registry's background compaction loop: whenever a
// program's delta reaches Config.DeltaMax, its table is compacted off the
// query path (queries keep flowing — compaction swaps under a brief write
// lock). Shutdown is drain-aware: closing the registry cancels the
// compaction context, an in-flight rebuild aborts at its next check
// instead of publishing, and Close's WaitGroup holds until this loop has
// actually exited.
func (r *Registry) compactor() {
	defer r.wg.Done()
	//autofj:ctx-ok the compactor is a goroutine root owned by the registry; its lifetime is bound to r.stop, not to any caller's context
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-r.stop
		cancel()
	}()
	tick := time.NewTicker(compactInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.compactKick:
		case <-tick.C:
		}
		max := r.cfg.deltaMax()
		if max < 0 {
			continue
		}
		for _, p := range r.snapshotProgs() {
			cp := p.cur.Load()
			if cp == nil || cp.table.DeltaLen() < max {
				continue
			}
			did, err := cp.table.Compact(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return // shutting down mid-compaction
				}
				continue
			}
			if did {
				r.metrics.compactions.Add(1)
			}
		}
	}
}

// Close drains the registry: new queries fail fast with ErrShuttingDown,
// queries waiting for a slot are answered with it, admitted table calls
// are given until ctx's deadline to finish, and a compaction in flight
// aborts without publishing.
func (r *Registry) Close(ctx context.Context) error {
	if r.stopped.Swap(true) {
		return nil
	}
	close(r.stop)
	for range cap(r.sem) {
		select {
		case r.sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ArityError reports a query or mutation row whose cell count does not
// match the program's required width.
type ArityError struct {
	Program string
	Want    int
	Got     int
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("serve: program %q wants rows with %d cells, got %d", e.Program, e.Want, e.Got)
}
