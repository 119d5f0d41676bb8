package core

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// countUncapped counts row l's ball under configuration ci with no cap,
// as a miss counts its first join, with the center prepared as if the
// configurations joined had joined l cold, and releases the center. It
// counts even when ci's slot is current: the center must then still be
// prepared for ci's group.
func countUncapped(tab *Table, ms *tableScratch, ci int, l int32, joined ...int) uint32 {
	for cj := range ms.bestL {
		ms.bestL[cj] = -1
	}
	for _, cj := range joined {
		ms.bestL[cj] = l
	}
	ms.rows, ms.center = ms.rows[:0], -1
	n := tab.countBallTo(ms, make([]config.Fixed, len(tab.store.cols)), ci, l, math.MaxUint32)
	ms.releaseSides()
	return n
}

// expectBallsOracle counts the ball of EVERY live row through the
// table's counter with no cap, with the center prepared under seeded
// random group masks, and checks every (configuration, row) count against
// the pointer oracle: a fresh blocking index and freshly built profiles
// over the table's current live rows, one JoinFunction.Distance call per
// (configuration, candidate). For each cold slot, in an order that
// rotates with the row, a count runs with the center prepared for the
// slot's group plus a random set of the others; it must store exactly the
// configurations of the slot's group and leave every other slot as it
// was. So slots stored on behalf of other configurations are read back,
// and a multi-column count that stored a configuration its group left
// stale would disagree with the oracle. Returns the largest count seen,
// for vacuity checks.
func expectBallsOracle(t testing.TB, prog *Program, tab *Table, stage string, rng *rand.Rand) uint32 {
	t.Helper()
	rows := tab.Rows()
	o := newPointerOracle(t, prog, columnsOf(rows, tab.RowWidth()))
	sc := o.ix.NewScratch()

	tab.mu.RLock()
	defer tab.mu.RUnlock()
	ms := tab.getScratch()
	defer tab.putScratch(ms)
	nc := len(tab.configs)
	tag := uint64(tab.statsGen) << 32
	before := make([]uint64, nc)
	var largest uint32
	for l := range rows {
		for i := 0; i < nc; i++ {
			ci := (l + i) % nc
			if tab.cachedBall(ci, int32(l), tag) != 0 {
				continue
			}
			joined := []int{ci}
			for cj := range nc {
				if rng.Intn(3) == 0 {
					joined = append(joined, cj)
				}
			}
			for cj := range nc {
				before[cj] = tab.balls[cj*tab.ballStride+l].Load()
			}
			n := countUncapped(tab, ms, ci, int32(l), joined...)
			for cj := range nc {
				after := tab.balls[cj*tab.ballStride+l].Load()
				switch {
				case tab.eval.Group(cj) != tab.eval.Group(ci):
					if after != before[cj] {
						t.Fatalf("%s: row %d, joined %v: configuration %d outside the counted group went %#x -> %#x",
							stage, l, joined, cj, before[cj], after)
					}
				case after&^uint64(0xffffffff) != tag || cj == ci && after != tag|uint64(n):
					t.Fatalf("%s: row %d, joined %v: configuration %d stored %#x, counted %d",
						stage, l, joined, cj, after, n)
				}
			}
		}
		for ci := 0; ci < nc; ci++ {
			want := o.ballCount(ci, int32(l), sc)
			if got := tab.cachedBall(ci, int32(l), tag); got != want {
				t.Fatalf("%s: row %d %q, configuration %d: table's count %d, oracle %d",
					stage, l, rows[l], ci, got, want)
			}
			largest = max(largest, want)
		}
	}
	return largest
}

// ballDirectional is the one asymmetric function of the ball programs and
// of modelProgram: the inclusion distance of the candidate in the center
// differs from the reverse, so a fill that swaps the two sides disagrees
// with the oracle.
var ballDirectional = ConfigurationSpec{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "ID", Threshold: 0.15}

// ballSingleProgram is tableTestProgram plus the directional function.
func ballSingleProgram() *Program {
	p := tableTestProgram()
	p.Configurations = append(p.Configurations, ballDirectional)
	return p
}

// ballSingleRows follows every eighth reference record with a copy missing
// its first two words: a strict token subset of its neighbour, which is
// what makes the directional function read differently from the two sides.
func ballSingleRows(L []string) [][]string {
	var rows [][]string
	for i, rec := range L {
		rows = append(rows, []string{rec})
		if words := strings.Fields(rec); i%8 == 0 && len(words) > 3 {
			rows = append(rows, []string{strings.Join(words[2:], " ")})
		}
	}
	return rows
}

// ballMultiProgram is a hand-made two-column program over (title,
// director) rows: IDF-weighted set distances, a character distance and
// an embedding distance, so the multi-column fill folds all three kernel
// families with the per-column float32 rounding.
func ballMultiProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.3},
			{Preprocess: "L", Distance: "ED", Threshold: 0.2},
			{Preprocess: "L", Distance: "GED", Threshold: 0.25},
			{Preprocess: "L+S+RP", Tokenization: "SP", TokenWeights: "IDFW", Distance: "CD", Threshold: 0.35},
			ballDirectional,
		},
		BlockingBeta: 2,
		Columns:      []int{0, 1},
		Weights:      []float64{0.6, 0.4},
	}
}

// ballMultiRows are movie rows with holes: every third director and every
// seventh title is empty, so ball candidates meet the both-cells-missing
// rule as well as one-sided empties, and some titles recur without their
// article.
func ballMultiRows() [][]string {
	leftCols, _, _ := makeMovieTables(false)
	var rows [][]string
	for i, title := range leftCols[0] {
		row := []string{title, leftCols[1][i]}
		if i%3 == 0 {
			row[1] = ""
		}
		if i%7 == 0 {
			row[0] = ""
		}
		rows = append(rows, row)
		if i%5 == 1 { // a token-subset neighbour, for the directional function
			rows = append(rows, []string{strings.TrimPrefix(title, "the "), row[1]})
		}
	}
	return rows
}

// TestTableFusedBallsMatchOracle is the ball counter's contract: through
// delta rows, tombstones, compactions and statistics-generation bumps,
// uncapped counts with centers prepared under random group masks store
// exactly their group's configurations, and every configuration's ball of
// every live row equals the one-function oracle's count.
func TestTableFusedBallsMatchOracle(t *testing.T) {
	L, _ := makeTask(t, 71, 3)
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		name  string
		prog  *Program
		width int
		rows  [][]string
	}{
		{"single-column", ballSingleProgram(), 1, ballSingleRows(L)},
		{"multi-column", ballMultiProgram(), 2, ballMultiRows()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.rows)
			tab, err := tc.prog.NewTable(tc.width, tc.rows[:n-30], Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			largest := expectBallsOracle(t, tc.prog, tab, "initial segment", rng)

			if _, err := tab.Add(tc.rows[n-30 : n-10]); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "live delta rows", rng))

			// Tombstones in the segment and in the delta.
			if _, err := tab.Remove([]int{0, 3, 21, n - 29, n - 12}); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "tombstones", rng))

			// Compaction keeps the statistics generation: the counts just
			// filled are served from the cache over the new layout.
			if did, err := tab.Compact(context.Background()); err != nil || !did {
				t.Fatalf("compact: did=%v err=%v", did, err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "after compaction", rng))

			if _, err := tab.Add(tc.rows[n-10:]); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Remove([]int{1, tab.Len() - 1}); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "post-compaction churn", rng))

			if largest < 3 {
				t.Fatalf("largest ball holds %d rows; the comparison is vacuous", largest)
			}
		})
	}
}

// TestTableBallFillStoresJoinedGroups is the ball cache's contract over
// a run of misses. After each, every current slot of a joined row holds
// the oracle's count; the balls the resolution decided on (the first
// join, and each later join with a strictly smaller count) are current; a
// group the miss scanned to its last candidate is current at that row,
// and a group it scanned only part of the way is not. A later query that
// joins a row under more groups fills those without storing the current
// slots again, and Add and Remove each leave no slot of any row current.
func TestTableBallFillStoresJoinedGroups(t *testing.T) {
	L, R := makeTask(t, 73, 3)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:200]), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	nc := len(tab.configs)
	current := func(l int32, ci int) bool {
		return tab.cachedBall(ci, l, uint64(tab.statsGen)<<32) != 0
	}
	expectCold := func(stage string) {
		t.Helper()
		for l := 0; l < tab.Len(); l++ {
			for ci := 0; ci < nc; ci++ {
				if current(int32(l), ci) {
					t.Fatalf("%s: row %d configuration %d has a current ball slot", stage, l, ci)
				}
			}
		}
	}
	rows := tab.Rows()
	o := newPointerOracle(t, prog, columnsOf(rows, 1))
	sc := o.ix.NewScratch()
	const marked = 1 << 20 // a count no scan computes
	// miss scores q, result cache bypassed, checks the contract and
	// returns the match, by configuration the row it joined (-1 when
	// none), how many (row, configuration) scans stopped part of the way
	// and how many balls the resolution decided on.
	miss := func(q string) (m Match, bestL []int32, partial, decided int) {
		t.Helper()
		tab.mu.RLock()
		defer tab.mu.RUnlock()
		ms := tab.getScratch()
		defer tab.putScratch(ms)
		m = tab.score(ms, tab.fillQuery(ms, []string{q}), []string{q})
		for _, r := range ms.rows {
			for ci := 0; ci < nc; ci++ {
				at := int(r.at[bits.TrailingZeros64(uint64(tab.eval.Group(ci)))])
				switch {
				case at > 0 && at == len(r.cands) && !current(r.l, ci):
					t.Fatalf("%q: row %d configuration %d: its group scanned every candidate, slot cold", q, r.l, ci)
				case at > 0 && at < len(r.cands):
					if current(r.l, ci) {
						t.Fatalf("%q: row %d configuration %d: its group scanned %d of %d candidates, slot current", q, r.l, ci, at, len(r.cands))
					}
					partial++
				}
			}
		}
		cBest := uint32(math.MaxUint32)
		for ci, l := range ms.bestL {
			if l < 0 {
				continue
			}
			for cj := 0; cj < nc; cj++ {
				got := tab.cachedBall(cj, l, uint64(tab.statsGen)<<32)
				if want := o.ballCount(cj, l, sc); got != 0 && got != marked && got != want {
					t.Fatalf("%q: row %d configuration %d: slot %d, oracle %d", q, l, cj, got, want)
				}
			}
			if want := o.ballCount(ci, l, sc); want < cBest {
				cBest = want
				decided++
				if !current(l, ci) {
					t.Fatalf("%q: the resolution decided on row %d's ball under configuration %d, slot cold", q, l, ci)
				}
			}
		}
		return m, slices.Clone(ms.bestL), partial, decided
	}

	expectCold("fresh table")
	// Misses until one joins a row under only some of its groups' slots
	// current, having seen a scan stop part of the way and a resolution
	// that decided on a later, smaller ball.
	l := int32(-1)
	var partials, laterDecided int
	for _, q := range R {
		m, bestL, partial, decided := miss(q)
		partials += partial
		if decided > 1 {
			laterDecided++
		}
		if m.Left < 0 || l >= 0 {
			continue
		}
		for ci, bl := range bestL {
			if bl == int32(m.Left) && !current(bl, ci) {
				l = bl
			}
		}
	}
	if l < 0 || partials == 0 || laterDecided == 0 {
		t.Fatalf("row with a cold joined slot %d, scans stopped part of the way %d, misses deciding a later ball %d: the test is vacuous",
			l, partials, laterDecided)
	}

	// Row l's own string joins l under cold groups too. Mark the current
	// slots: they must keep the mark, and some cold slot must fill.
	tag := uint64(tab.statsGen) << 32
	was := make([]bool, nc)
	for ci := 0; ci < nc; ci++ {
		if was[ci] = current(l, ci); was[ci] {
			tab.balls[ci*tab.ballStride+int(l)].Store(tag | marked)
		}
	}
	miss(rows[l][0])
	filled := false
	for ci := 0; ci < nc; ci++ {
		v := tab.balls[ci*tab.ballStride+int(l)].Load()
		if was[ci] && v != tag|marked {
			t.Fatalf("row %d configuration %d: a current slot was stored again (%#x)", l, ci, v)
		}
		filled = filled || !was[ci] && current(l, ci)
	}
	if !filled {
		t.Fatalf("row %d's own string filled no cold slot of it", l)
	}

	if _, err := tab.Add(toRows(L[200:210])); err != nil {
		t.Fatal(err)
	}
	expectCold("after Add")
	rows = tab.Rows()
	o = newPointerOracle(t, prog, columnsOf(rows, 1))
	sc = o.ix.NewScratch()
	joined := false
	for _, q := range R {
		if m, _, _, _ := miss(q); m.Left >= 0 {
			joined = true
			break
		}
	}
	if !joined {
		t.Fatal("after Add: no query joined; the Remove step is vacuous")
	}
	if _, err := tab.Remove([]int{tab.Len() - 1}); err != nil {
		t.Fatal(err)
	}
	expectCold("after Remove")
}

// TestBallCountPreparesAskingGroup: the counter prepares the center for
// the asking configuration's group even when that slot is current by the
// time it reads the others, as when another query fills it between the
// resolution's cold read and the count. Every (configuration, row) slot
// of the table is made current first, so the center's mask holds the
// asking group alone, and each count must still equal the oracle's.
func TestBallCountPreparesAskingGroup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *Program
		width int
		rows  [][]string
	}{
		{"single-column", ballSingleProgram(), 1, toRows(makeReference())},
		{"multi-column", ballMultiProgram(), 2, ballMultiRows()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := tc.prog.NewTable(tc.width, tc.rows, Options{QueryCacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			rows := tab.Rows()
			o := newPointerOracle(t, tc.prog, columnsOf(rows, tc.width))
			sc := o.ix.NewScratch()
			tab.mu.RLock()
			defer tab.mu.RUnlock()
			ms := tab.getScratch()
			defer tab.putScratch(ms)
			nc, n := len(tab.configs), min(len(rows), 60)
			tag := uint64(tab.statsGen) << 32
			for l := range n {
				for ci := range nc {
					tab.balls[ci*tab.ballStride+l].Store(tag | markedBall(ci))
				}
			}
			var largest uint32
			for l := range n {
				for ci := range nc {
					want := o.ballCount(ci, int32(l), sc)
					if got := countUncapped(tab, ms, ci, int32(l), ci); got != want {
						t.Fatalf("row %d %q, configuration %d, slot current: counted %d, oracle %d", l, rows[l], ci, got, want)
					}
					largest = max(largest, want)
				}
			}
			if largest < 3 {
				t.Fatalf("largest ball holds %d rows; the comparison is vacuous", largest)
			}
		})
	}
}

// markedBall is a ball count no scan computes, distinct per configuration.
func markedBall(ci int) uint64 { return 1<<20 + uint64(ci) }

// TestTableBallFillsUnderTraffic is the ball counter's concurrency
// contract under -race: 8 goroutines count overlapping rows at once, with
// centers prepared under different group masks — each checking that the
// count it was handed is the count the cache then serves and the count
// an independent recount computes — while a mutator adds and removes
// rows, bumping the statistics generation under them. The surviving table
// must agree with the oracle on every (configuration, row).
func TestTableBallFillsUnderTraffic(t *testing.T) {
	L, _ := makeTask(t, 79, 2)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:120]), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	mutations := 120
	if testing.Short() {
		mutations = 30
	}
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < mutations; i++ {
			var err error
			if i%3 == 2 {
				_, err = tab.Remove([]int{(i * 7) % tab.Len()})
			} else {
				_, err = tab.Add(toRows([]string{L[(120+i)%len(L)] + " rev"}))
			}
			if err != nil {
				t.Errorf("mutation %d: %v", i, err)
				return
			}
		}
	}()

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; !done.Load() || round < 4; round++ {
				tab.mu.RLock()
				ms, ms2 := tab.getScratch(), tab.getScratch()
				nc, n := len(tab.configs), tab.store.tix.Len()
				tag := uint64(tab.statsGen) << 32
				// Windows overlap between neighbouring goroutines and drift
				// across rounds, so the same rows are counted concurrently.
				for i := 0; i < 12; i++ {
					l := int32((g*5 + round*3 + i) % n)
					ci := (g + i) % nc
					got := tab.cachedBall(ci, l, tag)
					if got == 0 {
						got = countUncapped(tab, ms, ci, l, ci, (ci+g)%nc)
					}
					if again := tab.cachedBall(ci, l, tag); again != got {
						t.Errorf("row %d configuration %d: counted %d, then served %d", l, ci, got, again)
					}
					if recount := countUncapped(tab, ms2, ci, l, ci); recount != got {
						t.Errorf("row %d configuration %d: counted %d, recount computes %d", l, ci, got, recount)
					}
				}
				tab.putScratch(ms)
				tab.putScratch(ms2)
				tab.mu.RUnlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	expectBallsOracle(t, prog, tab, "after the storm", rand.New(rand.NewSource(79)))
}
