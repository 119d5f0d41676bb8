package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
)

// The model-based differential harness for Table: one driver decodes
// bytes into ops (Add, Remove, Compact, Save and load, a fused ball fill,
// each followed by a probe in one of the six query forms) and applies
// them to one table per variant. The model is the live rows in dense
// order, answered by the pointer oracle (matcher_oracle_test.go).
// TestTableModel feeds it seeded bytes, FuzzTableOps the fuzzer's.

// modelVariant is a table's parallelism and Options.QueryCacheSize.
type modelVariant struct{ par, cache int }

// modelVariants: parallelism 1, 4 and 8 with the result cache on (the
// default cap, which no run fills) and off, and an 8-entry cache that the
// probes overflow, so it flushes at its cap while serving hits.
var modelVariants = []modelVariant{{1, 0}, {4, 0}, {8, 0}, {1, -1}, {4, -1}, {8, -1}, {4, 8}}

// modelFixture is a program with the rows a run draws from.
type modelFixture struct {
	name  string
	prog  *Program
	width int
	// Rows are drawn from pool, or one time in four from special: empty
	// cells, copies, non-ASCII text, negative-rule words, new tokens.
	pool, special [][]string
	queries       [][]string // distinct; half the picks are the first six
	maxInit       int        // the largest initial table
	balls         bool       // whether the fused-fill op runs: it fills every live row
}

// modelOps holds each op's letter as often as a byte should pick it: the
// probe alone, Add, Remove, Compact, Save and a fused Ball fill.
const modelOps = "ppppaaaarrrccssb"

// modelSource decodes choices from bytes, all 0 once they run out.
type modelSource struct{ data []byte }

// intn returns a choice in [0, n): one byte for n ≤ 256, two above.
func (s *modelSource) intn(n int) int {
	v := 0
	for range 1 + min(1, (n-1)/256) {
		v <<= 8
		if len(s.data) > 0 {
			v, s.data = v|int(s.data[0]), s.data[1:]
		}
	}
	return v % max(n, 1)
}

// modelTable is one driven table and what the driver knows of its cache.
type modelTable struct {
	v    modelVariant
	tab  *Table
	gen  uint64
	seen map[int]bool // queries answered under gen: a cache's possible hits
}

// modelAnswer is the oracle's answer and, by configuration, the row joined.
type modelAnswer struct {
	m      Match
	joined []int32
}

type modelRun struct {
	tb     testing.TB
	fx     *modelFixture
	src    *modelSource
	dir    string
	tabs   []*modelTable
	rows   [][]string // the model: the live rows in dense order
	oracle *pointerOracle
	sc     *blocking.TableScratch
	memo   map[int]modelAnswer
	log    []string
	stats  map[string]int // what the run reached, for vacuity checks
}

// runModel decodes data into an initial table and at most maxOps ops
// (fewer when the data runs out), and drives one table per variant.
func runModel(tb testing.TB, fx *modelFixture, variants []modelVariant, data []byte, maxOps int) map[string]int {
	tb.Helper()
	r := &modelRun{tb: tb, fx: fx, src: &modelSource{data}, dir: tb.TempDir(), stats: map[string]int{}}
	defer func() { // a failure ends the run through here, whichever check failed
		if tb.Failed() {
			tb.Logf("%s: op sequence:\n  %s", fx.name, strings.Join(r.log, "\n  "))
		}
	}()
	for range r.src.intn(fx.maxInit + 1) {
		r.rows = append(r.rows, r.pickRow())
	}
	r.logf("new table of %d rows: %q", len(r.rows), r.rows[:min(len(r.rows), 6)])
	for _, v := range variants {
		tab, err := fx.prog.NewTable(fx.width, r.rows, Options{Parallelism: v.par, QueryCacheSize: v.cache})
		if err != nil {
			r.fatalf("NewTable: %v", err)
		}
		r.tabs = append(r.tabs, &modelTable{v: v, tab: tab, gen: 1, seen: map[int]bool{}})
	}
	r.check("new table")
	ops := map[byte]func() string{'p': func() string { return "probe" },
		'a': r.add, 'r': r.remove, 'c': r.compact, 's': r.save, 'b': r.balls}
	for op := 0; op < maxOps && len(r.src.data) > 0; op++ {
		r.check(ops[modelOps[r.src.intn(len(modelOps))]]())
	}
	return r.stats
}

func (r *modelRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *modelRun) fatalf(format string, args ...any) {
	r.tb.Helper()
	r.tb.Fatalf("%s: %s", r.fx.name, fmt.Sprintf(format, args...))
}

func (r *modelRun) pickRow() []string {
	if r.src.intn(4) == 0 {
		return r.fx.special[r.src.intn(len(r.fx.special))]
	}
	return r.fx.pool[r.src.intn(len(r.fx.pool))]
}

// answer returns the model's answer to query qi, rebuilding the oracle
// after the rows changed.
func (r *modelRun) answer(qi int) modelAnswer {
	if r.oracle == nil {
		r.oracle = newPointerOracle(r.tb, r.fx.prog, columnsOf(r.rows, r.fx.width))
		r.sc, r.memo = r.oracle.ix.NewScratch(), map[int]modelAnswer{}
	}
	a, ok := r.memo[qi]
	if !ok {
		a.m, a.joined = r.oracle.matchRow(r.fx.queries[qi])
		r.memo[qi] = a
	}
	return a
}

// setGen checks the generation g an op returned, which the table must
// report: larger than before when the op changed the table (the queries
// answered under the old one are then forgotten), else the same.
func (r *modelRun) setGen(mt *modelTable, g uint64, changed bool, what string) {
	if mt.tab.Generation() != g || changed != (g > mt.gen) || g < mt.gen {
		r.fatalf("%v: %s: generation %d, table reports %d, was %d", mt.v, what, g, mt.tab.Generation(), mt.gen)
	}
	if changed {
		mt.gen = g
		clear(mt.seen)
	}
}

// add appends one to six rows: rows of empty cells (a snapshot stores
// each in one byte a cell), copies of one pick, or distinct picks; or,
// half the time in a fourth shape, tries a batch with one row of the
// wrong width, which the table must refuse whole. The caller's slices
// are overwritten after the call: the table must have copied them.
func (r *modelRun) add() string {
	n, shape := 1+r.src.intn(6), r.src.intn(4)
	picks, batch := make([][]string, n), make([][]string, n)
	for i := range picks {
		switch {
		case shape == 0:
			picks[i] = make([]string, r.fx.width)
		case shape == 1 && i > 0:
			picks[i] = picks[0]
		default:
			picks[i] = r.pickRow()
		}
		batch[i] = slices.Clone(picks[i])
	}
	refused := shape == 3 && r.src.intn(2) == 0
	if refused {
		bad := r.src.intn(n)
		batch[bad] = make([]string, max(0, r.fx.width+1-2*r.src.intn(2)))
		r.logf("Add, refused: row %d of %d has %d cells", bad, n, len(batch[bad]))
		r.stats["refused"]++
	} else {
		r.logf("Add %q", picks)
		r.rows, r.oracle = append(r.rows, picks...), nil
	}
	for _, mt := range r.tabs {
		g, err := mt.tab.Add(batch)
		if refused != (err != nil) {
			r.fatalf("%v: Add: error %v", mt.v, err)
		}
		if refused {
			g = mt.gen
		}
		r.setGen(mt, g, !refused, "Add")
	}
	for _, row := range batch {
		for c := range row {
			row[c] = "overwritten by the caller"
		}
	}
	return "Add"
}

// remove decodes one of six removal shapes; the tables must accept
// exactly the valid ones.
func (r *modelRun) remove() string {
	n := len(r.rows)
	var idx []int
	shape := []string{"single", "batch", "empty", "out of range", "duplicate", "most"}[r.src.intn(6)]
	switch shape {
	case "single":
		idx = []int{r.src.intn(n)}
	case "batch":
		for k := 1 + r.src.intn(12); k > 0; k-- {
			if d := r.src.intn(n); !slices.Contains(idx, d) {
				idx = append(idx, d)
			}
		}
	case "out of range":
		idx = []int{r.src.intn(n), []int{-1, n, n + 1 + r.src.intn(4)}[r.src.intn(3)]}
	case "duplicate":
		d := r.src.intn(n)
		idx = []int{d, (d + 1) % max(n, 1), d}
	case "most": // all but up to three rows, from a decoded start
		keep, start := r.src.intn(4), r.src.intn(n)
		for i := range max(0, n-keep) {
			idx = append(idx, (start+i)%n)
		}
	}
	if n == 0 && shape != "out of range" && shape != "duplicate" || shape == "empty" {
		idx = []int{}
	}
	sorted := slices.Sorted(slices.Values(idx))
	valid := len(slices.Compact(slices.Clone(sorted))) == len(idx) &&
		(len(idx) == 0 || sorted[0] >= 0 && sorted[len(idx)-1] < n)
	r.logf("Remove %s %v", shape, idx)
	if !valid {
		r.stats["refused"]++
	} else if len(idx) > 0 {
		for i, d := range sorted {
			r.rows = slices.Delete(r.rows, d-i, d-i+1)
		}
		r.oracle = nil
		r.stats["removed"] += len(idx)
		if len(r.rows) == 0 {
			r.stats["emptied"]++
		}
	}
	for _, mt := range r.tabs {
		g, err := mt.tab.Remove(idx)
		if valid != (err == nil) {
			r.fatalf("%v: Remove %v of %d rows: error %v", mt.v, idx, n, err)
		}
		if !valid {
			g = mt.gen
		}
		r.setGen(mt, g, valid && len(idx) > 0, "Remove "+shape)
	}
	return "Remove " + shape
}

// compact compacts every table: it must swap exactly when it has delta
// rows to seal or a major rebuild is due, and leave at most
// maxTableSegments segments.
func (r *modelRun) compact() string {
	r.logf("Compact, %d delta rows", r.tabs[0].tab.DeltaLen())
	for _, mt := range r.tabs {
		segs, want := slices.Clone(mt.tab.store.segs), mt.tab.DeltaLen() > 0 || mt.tab.store.needsMajor()
		ok, err := mt.tab.Compact(context.Background())
		if err != nil || ok != want || mt.tab.SegmentCount() > maxTableSegments {
			r.fatalf("%v: Compact swapped %v, want %v; %d segments, error %v", mt.v, ok, want, mt.tab.SegmentCount(), err)
		}
		r.setGen(mt, mt.tab.Generation(), ok, "Compact")
		if ok && len(segs) > 0 && len(mt.tab.store.segs) == 1 && mt.tab.store.segs[0] != segs[0] && mt == r.tabs[0] {
			r.stats["majors"]++
		}
	}
	return "Compact"
}

// save replaces every table by its snapshot loaded back at generation 1,
// through memory or a file. The tables hold the same rows in the same
// layout, so they write the same bytes. A snapshot stores no statistics,
// so the first table's, before the save and after the load, are held to
// a build of its live rows.
func (r *modelRun) save() string {
	how := []string{"Save + LoadTable", "SaveFile + LoadTableFile"}[r.src.intn(2)]
	r.logf("%s, %d live delta rows", how, r.tabs[0].tab.DeltaLen())
	if r.tabs[0].tab.DeltaLen() > 0 {
		r.stats["deltaSaves"]++
	}
	var first []byte
	expectLiveStatistics(r.tb, r.fx.prog, r.tabs[0].tab)
	for i, mt := range r.tabs {
		opt := Options{Parallelism: mt.v.par, QueryCacheSize: mt.v.cache}
		var buf bytes.Buffer
		var loaded *Table
		err := mt.tab.Save(&buf)
		path := filepath.Join(r.dir, fmt.Sprint(i))
		if err == nil && how == "Save + LoadTable" {
			loaded, err = LoadTable(buf.Bytes(), opt)
		} else if err == nil {
			if err = mt.tab.SaveFile(path); err == nil {
				loaded, err = LoadTableFile(path, opt)
			}
		}
		if err != nil {
			r.fatalf("%v: %s: %v", mt.v, how, err)
		}
		if first == nil {
			first = buf.Bytes()
		}
		if !bytes.Equal(buf.Bytes(), first) || loaded.Generation() != 1 {
			r.fatalf("%v: other bytes than %v, or a loaded table at generation %d", mt.v, r.tabs[0].v, loaded.Generation())
		}
		if i == 0 {
			expectLiveStatistics(r.tb, r.fx.prog, loaded)
		}
		mt.tab, mt.gen = loaded, 1
		clear(mt.seen)
	}
	return how
}

// balls runs the fused fill under random group masks on every live row
// of one table (expectBallsOracle).
func (r *modelRun) balls() string {
	if !r.fx.balls {
		return "probe"
	}
	mt, seed := r.tabs[r.src.intn(len(r.tabs))], int64(r.src.intn(1<<16))
	r.logf("fused ball fills on %v, mask seed %d", mt.v, seed)
	if expectBallsOracle(r.tb, r.fx.prog, mt.tab, "fused fills", rand.New(rand.NewSource(seed))) >= 3 {
		r.stats["bigBalls"]++
	}
	return "fused ball fills"
}

var modelForms = []string{"Match", "MatchRow", "MatchBatch", "MatchRows", "MatchBatchAt", "MatchStream"}

// check compares every table with the model after an op: its rows in
// dense order, then a decoded probe of distinct queries in one form.
func (r *modelRun) check(stage string) {
	form := r.src.intn(len(modelForms))
	var qs []int
	for k := 1 + r.src.intn(8); k > 0; k-- {
		qi := r.src.intn(len(r.fx.queries))
		if r.src.intn(2) == 0 {
			qi %= 6
		}
		if !slices.Contains(qs, qi) {
			qs = append(qs, qi)
		}
	}
	r.logf("  probe %s %v", modelForms[form], qs)
	for _, mt := range r.tabs {
		where := fmt.Sprintf("%s, %v", stage, mt.v)
		got := mt.tab.Rows()
		if mt.tab.Len() != len(r.rows) || len(got) != len(r.rows) {
			r.fatalf("%s: Len %d, %d rows, model %d", where, mt.tab.Len(), len(got), len(r.rows))
		}
		for d, want := range r.rows {
			if row, err := mt.tab.Row(d); !slices.Equal(got[d], want) || err != nil || !slices.Equal(row, want) {
				r.fatalf("%s: Rows()[%d] = %q, Row(%d) = %q, %v; model %q", where, d, got[d], d, row, err, want)
			}
		}
		for _, d := range []int{-1, len(r.rows)} {
			if _, err := mt.tab.Row(d); err == nil {
				r.fatalf("%s: Row(%d) of %d rows accepted", where, d, len(r.rows))
			}
		}
		r.probe(mt, form, qs, where+", "+modelForms[form])
	}
}

// probe checks a table's answers to queries qs, put in one form, against
// the model, with the matched rows, the cache verdicts and the balls the
// answers read.
func (r *modelRun) probe(mt *modelTable, form int, qs []int, where string) {
	ctx, tab := context.Background(), mt.tab
	rows, keys := make([][]string, len(qs)), make([]string, len(qs))
	for i, qi := range qs {
		rows[i], keys[i] = r.fx.queries[qi], r.fx.queries[qi][0]
	}
	hits0, misses0 := tab.QueryCacheStats()
	len0 := tab.QueryCacheLen()
	var got []Match
	var tb *TableBatch
	var err error
	switch form {
	case 0, 1:
		for i := 0; i < len(qs) && err == nil; i++ {
			var m Match
			var ok bool
			if form == 0 {
				m, ok, err = tab.Match(ctx, keys[i])
			} else {
				m, ok, err = tab.MatchRow(ctx, rows[i])
			}
			if err == nil && ok != (m.Left >= 0) {
				r.fatalf("%s: ok %v for %+v", where, ok, m)
			}
			got = append(got, m)
		}
	case 2:
		got, err = tab.MatchBatch(ctx, keys)
	case 3:
		got, err = tab.MatchRows(ctx, rows)
	case 4:
		if tb, err = tab.MatchBatchAt(ctx, rows); err == nil {
			got = tb.Matches
		}
	case 5:
		for sm, serr := range tab.MatchStream(ctx, slices.Values(keys)) {
			i := len(got)
			if err = serr; err == nil && (i == len(keys) || sm.Index != i || sm.Record != keys[i] || sm.OK != (sm.Match.Left >= 0)) {
				r.fatalf("%s: stream element %d: %+v", where, i, sm)
			}
			got = append(got, sm.Match)
		}
	}
	if r.fx.width > 1 && (form == 0 || form == 2 || form == 5) {
		if !errors.Is(err, errNeedRow) {
			r.fatalf("%s: a multi-column table answered a one-string query (error %v)", where, err)
		}
		return
	}
	if err != nil || len(got) != len(qs) {
		r.fatalf("%s: %d answers to %d queries, error %v", where, len(got), len(qs), err)
	}
	seen, cached := 0, 0
	for i, qi := range qs {
		want := r.answer(qi).m
		if !sameMatch(got[i], want) {
			r.fatalf("%s: query %d %q: table %+v, model %+v", where, qi, r.fx.queries[qi], got[i], want)
		}
		if want.Left >= 0 {
			r.stats["matched"]++
		}
		if mt.seen[qi] {
			seen++
		}
		if !r.cacheable(qi) && len(r.rows) > 0 {
			r.stats["uncacheable"]++
		}
		if tb != nil && (want.Left >= 0 && !slices.Equal(tb.Rows[i], r.rows[want.Left]) || want.Left < 0 && tb.Rows[i] != nil) {
			r.fatalf("%s: query %d matched row %q", where, qi, tb.Rows[i])
		}
		// A hit only for a query answered under this generation; every such
		// query hits on a cache that has never flushed.
		if tb != nil && (tb.Cached[i] && !mt.seen[qi] || mt.v.cache <= 0 && tb.Cached[i] != mt.seen[qi]) {
			r.fatalf("%s: query %d cached %v at generation %d", where, qi, tb.Cached[i], mt.gen)
		}
		if tb != nil && tb.Cached[i] {
			cached++
		}
	}
	if tb != nil && tb.Generation != mt.gen {
		r.fatalf("%s: batch answered at generation %d, table at %d", where, tb.Generation, mt.gen)
	}
	// One lookup a query (none on an empty table), and exactly the hits
	// the verdicts report.
	hits1, misses1 := tab.QueryCacheStats()
	hits, lookups := int(hits1-hits0), int(hits1-hits0+misses1-misses0)
	if lookups != min(len(r.rows), 1)*len(qs) || tb != nil && hits != cached || hits > seen || mt.v.cache <= 0 && hits != seen {
		r.fatalf("%s: %d lookups, %d hits, %d reported cached, %d answered earlier at generation %d",
			where, lookups, hits, cached, seen, mt.gen)
	}
	for _, qi := range qs {
		mt.seen[qi] = len(r.rows) > 0 && mt.v.cache >= 0 && r.cacheable(qi)
	}
	r.stats["hits"] += hits
	switch n := tab.QueryCacheLen(); {
	case mt.v.cache < 0 && n != 0, mt.v.cache > 0 && n > mt.v.cache:
		r.fatalf("%s: %d cache entries resident with QueryCacheSize %d", where, n, mt.v.cache)
	case n < len0:
		r.stats["flushes"]++
	}
	// The table holds the oracle's count of every ball an answer read.
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	tag := uint64(tab.statsGen) << 32
	for _, qi := range qs {
		for ci, l := range r.answer(qi).joined {
			if l >= 0 && tab.cachedBall(ci, l, tag) != r.oracle.ballCount(ci, l, r.sc) {
				r.fatalf("%s: query %d joined row %d under configuration %d: ball count %d, oracle %d",
					where, qi, l, ci, tab.cachedBall(ci, l, tag), r.oracle.ballCount(ci, l, r.sc))
			}
		}
	}
}

// cacheable reports whether query qi's cache key fits maxCachedKey: a
// longer query is answered but never cached.
func (r *modelRun) cacheable(qi int) bool {
	row := r.fx.queries[qi]
	if r.fx.width > 1 {
		return len(appendRowKey(nil, row)) <= maxCachedKey
	}
	return len(row[0]) <= maxCachedKey
}

// expectModel checks a table with the default result cache: its answers
// to distinct queries in every form, against the model of its rows.
func expectModel(t *testing.T, prog *Program, tab *Table, queries [][]string) {
	t.Helper()
	fx := &modelFixture{name: t.Name(), prog: prog, width: tab.RowWidth(), queries: queries}
	mt := &modelTable{tab: tab, gen: tab.Generation(), seen: map[int]bool{}}
	r := &modelRun{tb: t, fx: fx, tabs: []*modelTable{mt}, rows: tab.Rows(), stats: map[string]int{}}
	qs := make([]int, len(queries))
	for i := range qs {
		qs[i] = i
	}
	for form := range modelForms {
		r.probe(mt, form, qs, modelForms[form])
	}
}

// modelProgram is tableTestProgram (ED, IDF-weighted JD and CD, GED,
// negative rules) plus the directional ID function.
func modelProgram() *Program {
	p := tableTestProgram()
	p.Configurations = append(p.Configurations, ballDirectional)
	return p
}

// modelSingleFixture is modelProgram over the NCAA records.
func modelSingleFixture() *modelFixture {
	L := makeReference()
	var pool [][]string
	for i, rec := range L {
		pool = append(pool, []string{rec})
		// A copy without the first two words is a strict token subset, so
		// the directional function reads differently from the two sides.
		if i%8 == 0 {
			pool = append(pool, []string{strings.Join(strings.Fields(rec)[2:], " ")})
		}
	}
	rng := rand.New(rand.NewSource(97))
	// The sixth query, a record padded past maxCachedKey, is answered but
	// never cached, and is among the six that half the picks draw from, so
	// it repeats within a generation.
	long := "2008 lsu tigers football team" + strings.Repeat(" ", maxCachedKey)
	qs := []string{L[0], "", perturb(rng, L[8]), "2007 lsu tigers footbal team", "0000 aardvark wisconsin badgers football team", long, L[1]}
	for i := 9; i < len(L); i += 9 {
		qs = append(qs, L[i], perturb(rng, L[i]))
	}
	qs = append(qs, "2010 georgia bulldogs basketbal", "zzz qqq xxx totally unjoinable 9",
		"zzzz zyzzyva oregon ducks baseball", "2008 lsu tigers mmmid basketbal team",
		"quokka wombat 2008 lsu tigers", "0000", "zzzz", "mmmid", "café münchen", "2008 lsu tigers fútbol")
	return &modelFixture{
		name: "single-column", prog: modelProgram(), width: 1, pool: pool,
		special: toRows([]string{"", L[0], L[1],
			"2008 lsu tigers fútbol team", "café münchen straße", "2009 wisconsin badgers 足球 team",
			"2007 lsu tigers footbal team", "basketbal footbal",
			// Tokens sorting before, between and after the vocabulary's.
			"0000 aardvark wisconsin badgers football team",
			"2008 lsu tigers mmmid basketball team",
			"zzzz zyzzyva oregon ducks baseball team",
		}),
		queries: toRows(qs), maxInit: 120, balls: true,
	}
}

// modelMultiFixture is modelProgram on two columns of (title, director,
// noise) movie rows: the noise is outside the program but inside the
// blocking key. Every third director and every seventh title is empty, so
// pairs meet the both-cells-empty rule and one-sided empties.
func modelMultiFixture() *modelFixture {
	prog := modelProgram()
	prog.BlockingBeta, prog.Columns, prog.Weights = 2, []int{0, 1}, []float64{0.6, 0.4}
	leftCols, rightCols, _ := makeMovieTables(true)
	left, right := columnRows(leftCols), columnRows(rightCols)
	var pool [][]string
	for i, row := range left {
		row = slices.Clone(row)
		if i%3 == 0 {
			row[1] = ""
		}
		if i%7 == 0 {
			row[0] = ""
		}
		pool = append(pool, row)
		if i%5 == 1 { // a token-subset neighbour, for the directional function
			pool = append(pool, []string{strings.TrimPrefix(row[0], "the "), row[1], row[2]})
		}
	}
	twin, veto := slices.Clone(right[0]), slices.Clone(left[1])
	twin[2] = "other noise" // the same program cells, another blocking key
	// left[1] one word off, a pair the rule vetoes: another row answers.
	word := strings.Fields(veto[1])[1]
	veto[1] = strings.Replace(veto[1], word, word+"x", 1)
	prog.NegativeRules = [][2]string{{word, word + "x"}}
	qs := [][]string{right[0], {"", "", ""}, twin, veto, {"the silent river", "", ""}, {"the crímson gärden", "nína petrova", ""}}
	return &modelFixture{
		name: "multi-column", prog: prog, width: 3, pool: pool,
		special: [][]string{{"", "", ""}, {"", "ava chen", ""}, {"the silent river", "", "qqq"},
			pool[1], pool[2], {"the crímson gärden", "nína petrova", "ñoise"}},
		queries: append(append(qs, right[2:]...), left[3], left[4], []string{"zzz qqq", "nobody", "unjoinable"}),
		maxInit: 80, balls: true,
	}
}

// modelLedgerFixture is the ledger's learned program (22 configurations,
// tight char thresholds) over 1,000 of its reference rows, queried by
// near strings: the char-bound skips must leave every answer as the
// oracle's, which runs every kernel.
func modelLedgerFixture(t *testing.T) *modelFixture {
	prog, keys := ledgerProgram(t)
	keys = keys[:1000]
	near := nearQueries(keys, 60, 41)
	qs := append([]string{near[0], keys[0], "", near[1], keys[3], near[2]}, near[3:]...)
	return &modelFixture{
		name: "ledger", prog: prog, width: 1, pool: oneCellRows(keys),
		special: toRows([]string{"", keys[0], keys[1], "ümlaut " + keys[2], near[0]}),
		queries: toRows(append(qs, keys[10:40]...)), maxInit: 600,
	}
}

// modelBytes returns n bytes from a seeded generator.
func modelBytes(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestTableModel drives seeded op sequences over three fixtures at every
// variant, and checks that the runs reached what they are there to check.
func TestTableModel(t *testing.T) {
	cases := []struct {
		fx       *modelFixture
		seeds    int64
		ops      int
		optional []string // what the fixture's runs need not reach
	}{
		{modelSingleFixture(), 6, 60, nil},
		{modelMultiFixture(), 3, 60, []string{"uncacheable"}},
		{modelLedgerFixture(t), 2, 40, []string{"emptied", "bigBalls", "uncacheable"}},
	}
	for _, c := range cases {
		t.Run(c.fx.name, func(t *testing.T) {
			sum := map[string]int{}
			for seed := range c.seeds {
				for k, v := range runModel(t, c.fx, modelVariants, modelBytes(seed+1, 1<<16), c.ops) {
					sum[k] += v
				}
			}
			t.Log(sum)
			for _, k := range strings.Fields("matched hits flushes refused removed emptied deltaSaves majors bigBalls uncacheable") {
				if sum[k] == 0 && !slices.Contains(c.optional, k) {
					t.Errorf("vacuous runs: no %s", k)
				}
			}
		})
	}
}

// FuzzTableOps runs the harness on the fuzzer's bytes over the
// single-column fixture.
func FuzzTableOps(f *testing.F) {
	// Three rows (pool picks: 1, then a two-byte index), Add of 3 + 1 empty
	// rows (shape 0), Save + LoadTable: a live delta of four one-byte rows.
	// Each op is followed by the probe 0, 0, 0, 0: Match of query 0.
	f.Add([]byte{
		3, 1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 0, 0,
		byte(strings.IndexByte(modelOps, 'a')), 3, 0, 0, 0, 0, 0,
		byte(strings.IndexByte(modelOps, 's')), 0, 0, 0, 0, 0,
	})
	for seed := range int64(4) {
		f.Add(modelBytes(seed, 256))
	}
	fx := modelSingleFixture()
	f.Fuzz(func(t *testing.T, data []byte) {
		runModel(t, fx, []modelVariant{{1, 0}, {4, -1}, {4, 8}}, data, 48)
	})
}
