package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// expectBallsOracle fills the ball of EVERY live row through the table's
// fused fill under seeded random group masks and checks every
// (configuration, row) count against the pointer oracle: a fresh blocking
// index and freshly built profiles over the table's current live rows, one
// JoinFunction.Distance call per (configuration, candidate). For each cold
// slot, in an order that rotates with the row, a fill runs under the
// slot's group plus a random set of the others; it must store exactly the
// configurations of its mask and leave every other slot as it was. So
// slots stored on behalf of other configurations are read back, and a
// multi-column fill that stored a configuration its mask left stale would
// disagree with the oracle. Returns the largest count seen, for vacuity
// checks.
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
			mask := tab.eval.Group(ci)
			for cj := range nc {
				if rng.Intn(3) == 0 {
					mask |= tab.eval.Group(cj)
				}
			}
			for cj := range nc {
				before[cj] = tab.balls[cj*tab.ballStride+l].Load()
			}
			tab.fillBalls(int32(l), mask, tag, ms)
			for cj := range nc {
				after := tab.balls[cj*tab.ballStride+l].Load()
				if mask&tab.eval.Group(cj) != 0 {
					if after != tag|uint64(ms.fill[cj]) {
						t.Fatalf("%s: row %d, mask %#x: configuration %d stored %#x, filled %d",
							stage, l, mask, cj, after, ms.fill[cj])
					}
				} else if after != before[cj] {
					t.Fatalf("%s: row %d, mask %#x: configuration %d outside the mask went %#x -> %#x",
						stage, l, mask, cj, before[cj], after)
				}
			}
		}
		for ci := 0; ci < nc; ci++ {
			want := o.ballCount(ci, int32(l), sc)
			if got := tab.cachedBall(ci, int32(l), tag); got != want {
				t.Fatalf("%s: row %d %q, configuration %d: table's fused count %d, oracle %d",
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

// TestTableFusedBallsMatchOracle is the fused fill's contract: through
// delta rows, tombstones, compactions and statistics-generation bumps,
// fills under random group masks store exactly their mask's
// configurations, and every configuration's ball of every live row equals
// the one-function oracle's count.
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

// TestTableBallFillStoresJoinedGroups: a miss won by row l fills l's
// ball under the groups of the configurations that joined to it, each
// count equal to the oracle's, and leaves every other group's slots of l
// cold; a later query that joins l under another group fills that group
// without storing the slots already current again; and Add and Remove
// each leave no slot of any row current.
func TestTableBallFillStoresJoinedGroups(t *testing.T) {
	L, R := makeTask(t, 73, 3)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:200]), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	nc := len(tab.configs)
	current := func(l, ci int) bool {
		return tab.cachedBall(ci, int32(l), uint64(tab.statsGen)<<32) != 0
	}
	expectCold := func(stage string) {
		t.Helper()
		for l := 0; l < tab.Len(); l++ {
			for ci := 0; ci < nc; ci++ {
				if current(l, ci) {
					t.Fatalf("%s: row %d configuration %d has a current ball slot", stage, l, ci)
				}
			}
		}
	}
	// miss scores q, result cache bypassed, and returns the match and, by
	// configuration, the row it joined (-1 when none).
	miss := func(q string) (Match, []int32) {
		tab.mu.RLock()
		defer tab.mu.RUnlock()
		ms := tab.getScratch()
		defer tab.putScratch(ms)
		m := tab.score(ms, tab.fillQuery(ms, []string{q}), []string{q})
		return m, append([]int32(nil), ms.bestL...)
	}
	joinedMask := func(bestL []int32, l int) config.GroupMask {
		var mask config.GroupMask
		for ci, bl := range bestL {
			if int(bl) == l {
				mask |= tab.eval.Group(ci)
			}
		}
		return mask
	}
	var allGroups config.GroupMask
	for ci := 0; ci < nc; ci++ {
		allGroups |= tab.eval.Group(ci)
	}

	expectCold("fresh table")
	// The first query that joins under only some of the groups.
	l := -1
	var mask config.GroupMask
	for _, q := range R {
		m, bestL := miss(q)
		if m.Left >= 0 {
			if mask = joinedMask(bestL, m.Left); mask != allGroups {
				l = m.Left
				break
			}
		}
	}
	if l < 0 {
		t.Fatal("no query joined under only some groups; the test is vacuous")
	}
	rows := tab.Rows()
	o := newPointerOracle(t, prog, columnsOf(rows, 1))
	sc := o.ix.NewScratch()
	for ci := 0; ci < nc; ci++ {
		v := tab.balls[ci*tab.ballStride+l].Load()
		if mask&tab.eval.Group(ci) == 0 {
			if current(l, ci) {
				t.Fatalf("row %d configuration %d outside the joined groups %#x: slot is current", l, ci, mask)
			}
			continue
		}
		if want := o.ballCount(ci, int32(l), sc); !current(l, ci) || uint32(v) != want {
			t.Fatalf("row %d configuration %d: slot %#x, oracle count %d", l, ci, v, want)
		}
	}

	// Row l's own string joins l under the other groups too. Mark the
	// current slots with a count no fill computes: they must keep it.
	const marked = 1 << 20
	tag := uint64(tab.statsGen) << 32
	for ci := 0; ci < nc; ci++ {
		if current(l, ci) {
			tab.balls[ci*tab.ballStride+l].Store(tag | marked)
		}
	}
	_, bestL := miss(rows[l][0])
	if again := joinedMask(bestL, l); again&^mask == 0 {
		t.Fatalf("row %d's own string joins it only under the groups %#x already filled", l, mask)
	}
	for ci := 0; ci < nc; ci++ {
		v := tab.balls[ci*tab.ballStride+l].Load()
		switch {
		case mask&tab.eval.Group(ci) != 0:
			if v != tag|marked {
				t.Fatalf("row %d configuration %d: a current slot was stored again (%#x)", l, ci, v)
			}
		case bestL[ci] == int32(l):
			if want := o.ballCount(ci, int32(l), sc); !current(l, ci) || uint32(v) != want {
				t.Fatalf("row %d configuration %d, second query: slot %#x, oracle count %d", l, ci, v, want)
			}
		}
	}

	if _, err := tab.Add(toRows(L[200:210])); err != nil {
		t.Fatal(err)
	}
	expectCold("after Add")
	joined := false
	for _, q := range R {
		if m, _ := miss(q); m.Left >= 0 {
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

// TestTableBallFillsUnderTraffic is the fused fill's concurrency contract
// under -race: 8 goroutines fill overlapping rows at once, under
// different group masks — each checking that the count it was handed is
// the count the cache then serves and the count an independent refill
// computes — while a mutator adds and removes rows, bumping the
// statistics generation under them. The surviving table
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
				// across rounds, so the same rows are filled concurrently.
				for i := 0; i < 12; i++ {
					l := int32((g*5 + round*3 + i) % n)
					ci := (g + i) % nc
					got := tab.cachedBall(ci, l, tag)
					if got == 0 {
						tab.fillBalls(l, tab.eval.Group(ci)|tab.eval.Group((ci+g)%nc), tag, ms)
						got = ms.fill[ci]
					}
					if again := tab.cachedBall(ci, l, tag); again != got {
						t.Errorf("row %d configuration %d: filled %d, then served %d", l, ci, got, again)
					}
					tab.fillBalls(l, tab.eval.Group(ci), tag, ms2)
					if ms2.fill[ci] != got {
						t.Errorf("row %d configuration %d: filled %d, refill computes %d", l, ci, got, ms2.fill[ci])
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
