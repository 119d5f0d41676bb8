package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
)

// pointerOracle is a retained copy of the original query path: one
// *config.Profile per reference record built by NewCorpus + Profiles, a
// fresh query profile per call, a plain blocking Index, and the
// one-function f.Distance compatibility kernel for ball counts. It is
// deliberately slow and allocation-heavy — its only job is to pin the
// exact answer the Table must keep producing.
type pointerOracle struct {
	configs  []Configuration
	multi    bool
	columns  []int
	weights  []float64
	rowWidth int

	ix    *blocking.Index
	k     int
	rules *negrule.Frozen
	cols  []oracleCol
	nL    int

	eval  *config.Evaluator
	balls []uint32
}

type oracleCol struct {
	corpus *config.Corpus
	profL  []*config.Profile
	cells  []string
}

// newPointerOracle mirrors the original compile step exactly:
// per-column corpus statistics over the reference records alone, the
// blocking index and K from the program's beta, and frozen negative
// rules over the concatenated keys.
func newPointerOracle(t testing.TB, p *Program, leftCols [][]string) *pointerOracle {
	t.Helper()
	configs, err := p.configurations()
	if err != nil {
		t.Fatal(err)
	}
	multi := len(p.Columns) > 0
	var progCols [][]string
	var leftKey []string
	if multi {
		for _, c := range p.Columns {
			progCols = append(progCols, leftCols[c])
		}
		leftKey = concatColumns(leftCols)
	} else {
		progCols = leftCols
		leftKey = leftCols[0]
	}
	beta := p.BlockingBeta
	if beta <= 0 {
		beta = DefaultBlockingBeta
	}
	o := &pointerOracle{
		configs:  configs,
		multi:    multi,
		columns:  append([]int(nil), p.Columns...),
		weights:  append([]float64(nil), p.Weights...),
		rowWidth: len(leftCols),
		nL:       len(leftKey),
	}
	o.ix = blocking.NewIndexParallel(leftKey, 1)
	o.k = blocking.K(len(leftKey), beta)
	space := make([]config.JoinFunction, len(configs))
	for i, c := range configs {
		space[i] = c.Function
	}
	o.eval = config.NewEvaluator(space)
	o.cols = make([]oracleCol, len(progCols))
	for j, colRecs := range progCols {
		corpus := config.NewCorpus(space, colRecs)
		o.cols[j] = oracleCol{
			corpus: corpus,
			profL:  corpus.Profiles(colRecs, 1),
			cells:  colRecs,
		}
	}
	if len(p.NegativeRules) > 0 {
		set := negrule.NewSet()
		for _, pair := range p.NegativeRules {
			set.Add(pair[0], pair[1])
		}
		o.rules = set.Freeze(leftKey, 1)
	}
	o.balls = make([]uint32, len(configs)*len(leftKey))
	return o
}

func (o *pointerOracle) pairDists(qprof []*config.Profile, qcells []string,
	esc *config.EvalScratch, drow, crow []float64, l int32) {
	if !o.multi {
		o.eval.Distances(o.cols[0].profL[l], qprof[0], esc, drow)
		return
	}
	for ci := range drow {
		drow[ci] = 0
	}
	for j := range o.cols {
		c := &o.cols[j]
		if c.cells[l] == "" && qcells[j] == "" {
			for ci := range drow {
				drow[ci] += o.weights[j]
			}
			continue
		}
		o.eval.Distances(c.profL[l], qprof[j], esc, crow)
		for ci := range drow {
			drow[ci] += o.weights[j] * float64(float32(crow[ci]))
		}
	}
}

func (o *pointerOracle) leftDist(ci int, a, b int32) float64 {
	f := o.configs[ci].Function
	if !o.multi {
		return f.Distance(o.cols[0].profL[a], o.cols[0].profL[b])
	}
	var d float64
	for j := range o.cols {
		c := &o.cols[j]
		if c.cells[a] == "" && c.cells[b] == "" {
			d += o.weights[j]
			continue
		}
		d += o.weights[j] * float64(float32(f.Distance(c.profL[a], c.profL[b])))
	}
	return d
}

func (o *pointerOracle) ballCount(ci int, l int32, sc *blocking.TableScratch) uint32 {
	slot := &o.balls[ci*o.nL+int(l)]
	if *slot != 0 {
		return *slot
	}
	radius := ballRadius * o.configs[ci].Threshold
	cands := o.ix.AppendTopKSelf(nil, sc, int(l), o.k)
	count := uint32(1)
	for _, c := range cands {
		if o.leftDist(ci, l, c.ID) <= radius {
			count++
		}
	}
	if count > maxBallCount {
		count = maxBallCount
	}
	*slot = count
	return count
}

// match reruns the historical matchOne: blocking top-k, negative-rule
// vetoes, fresh per-call query profiles, pair-major closest-candidate
// scan with a strict < (first minimum in blocking order), threshold and
// unjoinable filters, and the precision-ordered union resolution. It also
// returns, by configuration, the row that configuration joined (-1 when
// none): the rows whose balls the answer read.
func (o *pointerOracle) match(key string, row []string) (Match, []int32) {
	if len(o.configs) == 0 || o.nL == 0 {
		return noMatch(), nil
	}
	sc := o.ix.NewScratch()
	cands := o.ix.AppendTopK(nil, sc, key, o.k, -1)
	var ids []int32
	if o.rules != nil && o.rules.Len() > 0 {
		qwords := negrule.AppendWordSet(nil, key)
		for _, c := range cands {
			if !o.rules.Blocks(int(c.ID), qwords) {
				ids = append(ids, c.ID)
			}
		}
	} else {
		for _, c := range cands {
			ids = append(ids, c.ID)
		}
	}
	if len(ids) == 0 {
		return noMatch(), nil
	}
	qcells := make([]string, len(o.cols))
	if o.multi {
		for j, cj := range o.columns {
			qcells[j] = row[cj]
		}
	} else {
		qcells[0] = key
	}
	qprof := make([]*config.Profile, len(o.cols))
	for j := range o.cols {
		qprof[j] = o.cols[j].corpus.Profile(qcells[j])
	}
	esc := o.eval.NewScratch()
	drow := make([]float64, len(o.configs))
	crow := make([]float64, len(o.configs))
	bestD := make([]float64, len(o.configs))
	bestL := make([]int32, len(o.configs))
	for ci := range o.configs {
		bestL[ci] = -1
		bestD[ci] = math.Inf(1)
	}
	for _, l := range ids {
		o.pairDists(qprof, qcells, esc, drow, crow, l)
		for ci := range drow {
			if drow[ci] < bestD[ci] {
				bestD[ci] = drow[ci]
				bestL[ci] = l
			}
		}
	}
	best := noMatch()
	for ci := range o.configs {
		bl, bd := bestL[ci], bestD[ci]
		if bl < 0 || bd > o.configs[ci].Threshold || bd >= unjoinableDist {
			bestL[ci] = -1
			continue
		}
		pr := 1 / float64(o.ballCount(ci, bl, sc))
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
	return best, bestL
}

func (o *pointerOracle) matchRow(row []string) (Match, []int32) {
	if !o.multi {
		return o.match(row[0], nil)
	}
	return o.match(concatRow(row), row)
}

// oracleQueries builds a query mix that exercises every branch the
// oracle pins: exact copies, perturbed variants (repeated, so the
// result cache serves warm hits that must still agree), negative-
// rule collisions, unjoinable garbage, and an empty string.
func oracleQueries(keys []string) []string {
	rng := rand.New(rand.NewSource(97))
	var qs []string
	for i := 0; i < len(keys); i += 7 {
		qs = append(qs, keys[i], perturb(rng, keys[i]))
	}
	qs = append(qs,
		"2007 lsu tigers footbal team",     // negrule word vs baseball records
		"2010 georgia bulldogs basketbal",  // negrule word, truncated
		"zzz qqq xxx totally unjoinable 9", // blocks but never joins
		"",                                 // empty query
	)
	// Repeat the whole set so the second half is answered from the
	// result cache — bit-identity must hold on the hit path too.
	return append(qs, qs...)
}

// TestTableMatchesPointerOracle pins the Table to the retained
// pointer-profile oracle: every Match/MatchBatch/MatchRows answer must be
// bit-identical (==, not tolerance) for single- and multi-column programs
// compiled at parallelism 1, 4, and 8, through a table carrying a live
// delta, across a snapshot save/load round-trip, and through mutations
// that move the token vocabulary: tokens added before, between and after
// every stored token, tokens whose df drops to 0 and comes back, and
// minor and major compactions.
func TestTableMatchesPointerOracle(t *testing.T) {
	pars := []int{1, 4, 8}

	t.Run("single-column", func(t *testing.T) {
		prog := tableTestProgram()
		L := makeReference()
		oracle := newPointerOracle(t, prog, [][]string{L})
		queries := oracleQueries(L)
		want := make([]Match, len(queries))
		for i, q := range queries {
			want[i], _ = oracle.match(q, nil)
		}
		for _, par := range pars {
			m, err := prog.Compile(L, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.MatchBatch(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if got[i] != want[i] {
					t.Fatalf("par %d MatchBatch[%d] %q: got %+v, oracle %+v",
						par, i, queries[i], got[i], want[i])
				}
			}
			// Single-shot Match must agree with both (warm cache path).
			for i, q := range queries {
				one, _, err := m.Match(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if one != want[i] {
					t.Fatalf("par %d Match %q: got %+v, oracle %+v", par, q, one, want[i])
				}
			}
		}
	})

	// The ledger's learned program (22 configurations, tight char
	// thresholds) over its reference table, queried by perturbed and
	// near-equal-length strings: the char-bound skips must leave every
	// answer as the oracle's, which runs every kernel.
	t.Run("ledger-shape", func(t *testing.T) {
		prog, L := ledgerProgram(t)
		oracle := newPointerOracle(t, prog, [][]string{L})
		queries := nearQueries(L, 120, 41)
		m, err := prog.Compile(L, Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.MatchBatch(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if want, _ := oracle.match(q, nil); got[i] != want {
				t.Fatalf("MatchBatch[%d] %q: got %+v, oracle %+v", i, q, got[i], want)
			}
		}
	})

	t.Run("multi-column", func(t *testing.T) {
		leftCols, rightCols, _ := makeMovieTables(false)
		res, err := JoinMultiColumnTables(leftCols, rightCols, multiOptions())
		if err != nil {
			t.Fatal(err)
		}
		prog := res.ToProgram()
		oracle := newPointerOracle(t, prog, leftCols)
		var rows [][]string
		for i := range rightCols[0] {
			row := make([]string, len(rightCols))
			for j := range rightCols {
				row[j] = rightCols[j][i]
			}
			rows = append(rows, row)
		}
		rows = append(rows, rows...) // second pass hits the cache
		want := make([]Match, len(rows))
		for i, row := range rows {
			want[i], _ = oracle.matchRow(row)
		}
		for _, par := range pars {
			m, err := prog.CompileMultiColumn(leftCols, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.MatchRows(context.Background(), rows)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rows {
				if got[i] != want[i] {
					t.Fatalf("par %d MatchRows[%d] %v: got %+v, oracle %+v",
						par, i, rows[i], got[i], want[i])
				}
			}
		}
	})

	t.Run("table-with-delta", func(t *testing.T) {
		prog := tableTestProgram()
		L := makeReference()
		base, delta := L[:200], L[200:]
		tab, err := prog.NewTable(1, toRows(base), Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Add(toRows(delta)); err != nil {
			t.Fatal(err)
		}
		if tab.DeltaLen() == 0 {
			t.Fatal("delta did not stay live; the test needs a mixed base+delta read path")
		}
		// The oracle sees the table's current rows in dense order — the
		// same order Match.Left indexes.
		rows := tab.Rows()
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = r[0]
		}
		oracle := newPointerOracle(t, prog, [][]string{keys})
		queries := oracleQueries(keys)
		want := make([]Match, len(queries))
		for i, q := range queries {
			want[i], _ = oracle.match(q, nil)
		}
		got, err := tab.MatchBatch(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			if got[i] != want[i] {
				t.Fatalf("table MatchBatch[%d] %q: got %+v, oracle %+v",
					i, queries[i], got[i], want[i])
			}
		}

		t.Run("snapshot-round-trip", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "oracle.afj")
			if err := tab.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			for _, par := range pars {
				loaded, err := LoadTableFile(path, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.MatchBatch(context.Background(), queries)
				if err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					if got[i] != want[i] {
						t.Fatalf("par %d loaded MatchBatch[%d] %q: got %+v, oracle %+v",
							par, i, queries[i], got[i], want[i])
					}
				}
			}
		})
	})

	t.Run("vocabulary-mutations", func(t *testing.T) {
		prog := tableTestProgram()
		L := makeReference()
		tab, err := prog.NewTable(1, toRows(L[:120]), Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Rows whose new tokens sort before ("0000"), between ("mmmid") and
		// after ("zzzz") every token the table already holds.
		edge := []string{
			"0000 aardvark wisconsin badgers football team",
			"2008 lsu tigers mmmid basketball team",
			"zzzz zyzzyva oregon ducks baseball team",
		}
		queries := append(oracleQueries(L[:120]),
			"0000 aardvark wisconsin badgers football team", // only a removed row holds 0000/aardvark
			"zzzz zyzzyva oregon ducks baseball",
			"2008 lsu tigers mmmid basketbal team",
			"quokka wombat 2008 lsu tigers", // never-seen tokens
			"0000", "zzzz", "mmmid",
		)
		expect := func(stage string) {
			t.Helper()
			rows := tab.Rows()
			keys := make([]string, len(rows))
			for i, r := range rows {
				keys[i] = r[0]
			}
			oracle := newPointerOracle(t, prog, [][]string{keys})
			got, err := tab.MatchBatch(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				if want, _ := oracle.match(q, nil); got[i] != want {
					t.Fatalf("%s: query %d %q: got %+v, oracle %+v", stage, i, q, got[i], want)
				}
			}
		}
		denseOf := func(key string) int {
			t.Helper()
			for d, r := range tab.Rows() {
				if r[0] == key {
					return d
				}
			}
			t.Fatalf("row %q not in the table", key)
			return -1
		}

		if _, err := tab.Add(toRows(edge)); err != nil {
			t.Fatal(err)
		}
		expect("tokens added before, between and after the vocabulary")
		// Dropping the only rows holding 0000/aardvark and zzzz/zyzzyva takes
		// those tokens' df to 0.
		if _, err := tab.Remove([]int{denseOf(edge[0]), denseOf(edge[2])}); err != nil {
			t.Fatal(err)
		}
		expect("tokens at df 0")
		if _, err := tab.Add(toRows([]string{"zzzz texas longhorns football team"})); err != nil {
			t.Fatal(err)
		}
		expect("a df-0 token re-added")
		if _, err := tab.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		expect("minor compaction")
		for i := 0; tab.SegmentCount() > 1; i++ {
			if i == 2*maxTableSegments {
				t.Fatalf("no major compaction after %d minor ones", i)
			}
			if _, err := tab.Add(toRows([]string{fmt.Sprintf("2012 zq%dx usc trojans football team", i)})); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		expect("major compaction")
	})
}
