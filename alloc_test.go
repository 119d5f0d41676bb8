package autofj

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// Allocation budgets of the steady-state serving paths, counted exactly
// by testing.AllocsPerRun, which also pins GOMAXPROCS to 1 while it
// counts. The zero budgets are per pass over the whole query or pair
// set, so a single allocation anywhere fails them; the others are per
// operation and equal the measured count, so one more allocation fails
// them too. The snapshot budget alone has headroom: off Linux the file
// is read rather than mapped. To change a budget, set the constant to
// the count the test measures, in the same change that moves it.
const (
	topKAllocBudget         = 0   // per pass of 512 blocking top-k queries
	evaluatorAllocBudget    = 0   // per pass of 64 full-space RowDistances pairs over learn rows
	tableAddAllocBudget     = 2   // per Table.Add of one row
	matchDeltaAllocBudget   = 4   // per cache-off Match with a 256-row delta
	snapshotLoadAllocBudget = 164 // per LoadTableFile of the 10k-row table; 158 on Linux
)

// TestAllocationBudgets pins the allocation count of each hot path at
// its budget, over a 10k-row reference table of the serving program. A
// path that starts allocating more fails the ordinary test suite.
func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	left, queries := blockingBenchTables(10000, 512)
	check := func(name string, budget float64, runs int, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n > budget {
			t.Errorf("%s: %.0f allocs, budget %.0f", name, n, budget)
		}
	}

	ix := blocking.NewIndex(left)
	k := blocking.K(len(left), blocking.DefaultBeta)
	sc := ix.NewScratch()
	var dst []blocking.Candidate
	check("AppendTopK", topKAllocBudget, 5, func() {
		for _, q := range queries {
			dst = ix.AppendTopK(dst[:0], sc, q, k, -1)
		}
	})

	space := config.Space()
	recs := left[:64]
	learned := config.LearnProfiles(space, 1, recs)
	vocab, learnRows := learned.Vocab(), learned.Rows()
	ev := config.NewEvaluator(space)
	evSc := ev.NewScratch()
	var side config.Side
	out := make([]float64, len(space))
	check("Evaluator.RowDistances", evaluatorAllocBudget, 5, func() {
		for i := range len(recs) {
			f := vocab.PrepareRow(&side, learnRows, i, config.AllGroups, true)
			ev.RowDistances(&f, learnRows, (i+7)%len(recs), config.AllGroups, nil, evSc, out)
			side.Release()
		}
	})

	tab := benchTable10k(t, Options{QueryCacheSize: -1})
	path := filepath.Join(t.TempDir(), "table.afjs")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	check("LoadTableFile", snapshotLoadAllocBudget, 3, func() {
		if _, err := LoadTableFile(path, Options{}); err != nil {
			t.Fatal(err)
		}
	})

	addDelta(t, tab)
	_, right := blockingBenchTables(1, 2000)
	ctx := context.Background()
	next := 0
	check("cache-off Match with delta", matchDeltaAllocBudget, 200, func() {
		if _, _, err := tab.Match(ctx, right[next%len(right)]); err != nil {
			t.Fatal(err)
		}
		next++
	})

	const addRuns = 100
	rows := make([][][]string, addRuns+1) // AllocsPerRun adds one warm-up call
	for i := range rows {
		rows[i] = [][]string{{fmt.Sprintf("appended reference record %d", i)}}
	}
	next = 0
	check("Table.Add", tableAddAllocBudget, addRuns, func() {
		if _, err := tab.Add(rows[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}
