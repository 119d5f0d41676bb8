package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestMatchZeroAllocSteadyState pins the warm-path invariant: once the
// result cache holds a surface form, Match and MatchRow run without a
// single heap allocation. A regression here is a silent performance cliff
// long before it is a correctness bug, so it fails the ordinary test
// suite. The root package's TestAllocationBudgets budgets the other
// serving paths.
func TestMatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	ctx := context.Background()
	prog := tableTestProgram()
	L := makeReference()
	rng := rand.New(rand.NewSource(97))
	var queries []string // copies and perturbed variants
	for i := 0; len(queries) < 24; i += 7 {
		queries = append(queries, L[i], perturb(rng, L[i]))
	}

	m, err := prog.Compile(L, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	matchAll := func() {
		for _, q := range queries {
			if _, _, err := m.Match(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	matchAll() // warm pass: fills the cache and sizes the pooled scratch
	if n := testing.AllocsPerRun(50, matchAll); n != 0 {
		t.Errorf("warm Match: %.1f allocs per %d queries, want 0", n, len(queries))
	}

	t.Run("multi-column", func(t *testing.T) {
		leftCols, rightCols, _ := makeMovieTables(false)
		res, err := JoinMultiColumnTables(leftCols, rightCols, multiOptions())
		if err != nil {
			t.Fatal(err)
		}
		mm, err := res.ToProgram().CompileMultiColumn(leftCols, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]string, 16)
		for i := range rows {
			row := make([]string, len(rightCols))
			for j := range rightCols {
				row[j] = rightCols[j][i]
			}
			rows[i] = row
		}
		matchRows := func() {
			for _, row := range rows {
				if _, _, err := mm.MatchRow(ctx, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		matchRows()
		if n := testing.AllocsPerRun(50, matchRows); n != 0 {
			t.Errorf("warm multi-column MatchRow: %.1f allocs per %d rows, want 0", n, len(rows))
		}
	})

	t.Run("table", func(t *testing.T) {
		tab, err := prog.NewTable(1, toRows(L), Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Mutate once so the cache refills at a post-mutation generation —
		// the steady state a served table actually sits in.
		if _, err := tab.Add(toRows([]string{"2013 rice owls football team"})); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, _, err := tab.Match(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			for _, q := range queries {
				if _, _, err := tab.Match(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Errorf("warm Table.Match: %.1f allocs per %d queries, want 0", n, len(queries))
		}
	})
}
