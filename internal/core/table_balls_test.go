package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// expectBallsOracle fills the ball of EVERY live row through the table's
// fused fill and checks every (configuration, row) count against the
// pointer oracle: a fresh blocking index and freshly built profiles over
// the table's current live rows, one JoinFunction.Distance call per
// (configuration, candidate). The configuration that triggers a row's fill
// rotates with the row, so slots stored on behalf of other configurations
// are read back, not just the one that asked. Returns the largest count
// seen, for vacuity checks.
func expectBallsOracle(t *testing.T, prog *Program, tab *Table, stage string) uint32 {
	t.Helper()
	rows := tab.Rows()
	o := newPointerOracle(t, prog, columnsOf(rows, tab.RowWidth()))
	sc := o.ix.NewScratch()

	tab.mu.RLock()
	defer tab.mu.RUnlock()
	ms := tab.getScratch()
	defer tab.putScratch(ms)
	nc := len(tab.configs)
	var largest uint32
	for l := range rows {
		for i := 0; i < nc; i++ {
			ci := (l + i) % nc
			want := o.ballCount(ci, int32(l), sc)
			if got := tab.ballCount(ci, int32(l), ms); got != want {
				t.Fatalf("%s: row %d %q, configuration %d: table's fused count %d, oracle %d",
					stage, l, rows[l], ci, got, want)
			}
			largest = max(largest, want)
		}
	}
	return largest
}

// ballDirectional is the one asymmetric function of the ball programs:
// the inclusion distance of the candidate in the center differs from the
// reverse, so a fill that swaps the two sides disagrees with the oracle.
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
// every configuration's ball of every live row equals the one-function
// oracle's count.
func TestTableFusedBallsMatchOracle(t *testing.T) {
	L, _ := makeTask(t, 71, 3)
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
			largest := expectBallsOracle(t, tc.prog, tab, "initial segment")

			if _, err := tab.Add(tc.rows[n-30 : n-10]); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "live delta rows"))

			// Tombstones in the segment and in the delta.
			if _, err := tab.Remove([]int{0, 3, 21, n - 29, n - 12}); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "tombstones"))

			// Compaction keeps the statistics generation: the counts just
			// filled are served from the cache over the new layout.
			if did, err := tab.Compact(context.Background()); err != nil || !did {
				t.Fatalf("compact: did=%v err=%v", did, err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "after compaction"))

			if _, err := tab.Add(tc.rows[n-10:]); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Remove([]int{1, tab.Len() - 1}); err != nil {
				t.Fatal(err)
			}
			largest = max(largest, expectBallsOracle(t, tc.prog, tab, "post-compaction churn"))

			if largest < 3 {
				t.Fatalf("largest ball holds %d rows; the comparison is vacuous", largest)
			}
		})
	}
}

// ballSlotsCurrent counts the configurations whose cached ball of dense row
// l carries the current statistics generation.
func ballSlotsCurrent(tab *Table, l int) int {
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	n := 0
	for ci := range tab.configs {
		v := tab.balls[ci*tab.ballStride+l].Load()
		if uint32(v>>32) == tab.statsGen && uint32(v) != 0 {
			n++
		}
	}
	return n
}

// TestTableBallFillStoresEveryConfiguration: one miss whose winner is row
// l leaves ALL configurations' slots of l current — no later query can
// make a second self-blocking call for l — and Add and Remove each leave
// no slot of any row current.
func TestTableBallFillStoresEveryConfiguration(t *testing.T) {
	L, R := makeTask(t, 73, 3)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:200]), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc := len(tab.configs)
	expectCold := func(stage string) {
		t.Helper()
		for l := 0; l < tab.Len(); l++ {
			if n := ballSlotsCurrent(tab, l); n != 0 {
				t.Fatalf("%s: row %d has %d current ball slots, want 0", stage, l, n)
			}
		}
	}
	// matchWinner runs queries until one joins, and returns the winner.
	matchWinner := func(stage string) int {
		t.Helper()
		for _, q := range R {
			m, ok, err := tab.Match(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return m.Left
			}
		}
		t.Fatalf("%s: no query joined; the test is vacuous", stage)
		return -1
	}

	expectCold("fresh table")
	l := matchWinner("fresh table")
	if n := ballSlotsCurrent(tab, l); n != nc {
		t.Fatalf("after a miss won by row %d: %d of %d configurations' slots are current", l, n, nc)
	}

	if _, err := tab.Add(toRows(L[200:210])); err != nil {
		t.Fatal(err)
	}
	expectCold("after Add")
	l = matchWinner("after Add")
	if n := ballSlotsCurrent(tab, l); n != nc {
		t.Fatalf("after Add, a miss won by row %d: %d of %d slots are current", l, n, nc)
	}

	if _, err := tab.Remove([]int{tab.Len() - 1}); err != nil {
		t.Fatal(err)
	}
	expectCold("after Remove")
}

// TestTableBallFillsUnderTraffic is the fused fill's concurrency contract
// under -race: 8 goroutines fill overlapping rows at once — each checking
// that the count it was handed is the count the cache then serves and the
// count an independent refill computes — while a mutator adds and removes
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
				nc, n := len(tab.configs), tab.tix.Len()
				tag := uint64(tab.statsGen) << 32
				// Windows overlap between neighbouring goroutines and drift
				// across rounds, so the same rows are filled concurrently.
				for i := 0; i < 12; i++ {
					l := int32((g*5 + round*3 + i) % n)
					ci := (g + i) % nc
					got := tab.ballCount(ci, l, ms)
					if again := tab.ballCount(ci, l, ms); again != got {
						t.Errorf("row %d configuration %d: filled %d, then served %d", l, ci, got, again)
					}
					tab.fillBalls(l, tag, ms2)
					if ms2.counts[ci] != got {
						t.Errorf("row %d configuration %d: filled %d, refill computes %d", l, ci, got, ms2.counts[ci])
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
	expectBallsOracle(t, prog, tab, "after the storm")
}
