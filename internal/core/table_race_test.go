package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTableCompactionUnderTraffic hammers one table with concurrent
// queries, adds, removes, and forced compactions, and checks EVERY answer
// bit-identically against a full Compile of the table state that answered
// it. Run under -race this is the mutable-table concurrency contract.
//
// Verification keys off the generation MatchBatchAt reports: a single
// mutator records the live rows after each mutation, and since compaction
// never changes rows, the answering state is the latest recorded snapshot
// at or below the answered generation.
func TestTableCompactionUnderTraffic(t *testing.T) {
	L, R := makeTask(t, 59, 2)
	prog := tableTestProgram()
	queries := toRows(R[:10])

	tab, err := prog.NewTable(1, toRows(L[:100]), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Generation-indexed row snapshots, maintained only by the mutator.
	type snapshot struct {
		gen  uint64
		rows [][]string
	}
	var mu sync.Mutex
	snaps := []snapshot{{gen: tab.Generation(), rows: tab.Rows()}}
	oracles := make(map[uint64][]Match) // answering gen -> oracle answers

	// oracleFor resolves the snapshot answering generation g, compiling
	// (and caching) the full-recompile oracle on first use.
	oracleFor := func(g uint64) []Match {
		mu.Lock()
		defer mu.Unlock()
		if want, ok := oracles[g]; ok {
			return want
		}
		rows := snaps[0].rows
		for _, s := range snaps {
			if s.gen > g {
				break
			}
			rows = s.rows
		}
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = r[0]
		}
		m, err := prog.Compile(keys, Options{Parallelism: 1})
		if err != nil {
			t.Errorf("oracle compile: %v", err)
			return nil
		}
		want, err := m.MatchRows(context.Background(), queries)
		if err != nil {
			t.Errorf("oracle match: %v", err)
			return nil
		}
		oracles[g] = want
		return want
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadline := time.Now().Add(2 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(300 * time.Millisecond)
	}
	var wg sync.WaitGroup

	// One mutator: alternating adds and removes, recording each new state.
	// mu is held ACROSS the mutation: a query that observes the new
	// generation blocks in oracleFor until the matching snapshot exists,
	// so the generation -> rows mapping can never run ahead of the table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 100
		for i := 0; time.Now().Before(deadline); i++ {
			mu.Lock()
			var gen uint64
			var err error
			if i%3 == 2 && tab.Len() > 50 {
				gen, err = tab.Remove([]int{i % tab.Len()})
			} else {
				// A never-seen word per Add: every Add inserts into the
				// token vocabulary while queries run.
				gen, err = tab.Add(toRows([]string{fmt.Sprintf("%s zq%dx", L[next%len(L)], next)}))
				next++
			}
			if err != nil {
				mu.Unlock()
				t.Errorf("mutation: %v", err)
				return
			}
			snaps = append(snaps, snapshot{gen: gen, rows: tab.Rows()})
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	// One compactor, forcing minor and major compactions mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := tab.Compact(ctx); err != nil && ctx.Err() == nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Query workers verifying every batch against the per-generation oracle.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				tb, err := tab.MatchBatchAt(ctx, queries)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				want := oracleFor(tb.Generation)
				if want == nil {
					return
				}
				for i := range want {
					if tb.Matches[i] != want[i] {
						t.Errorf("generation %d, query %d: table %+v vs full compile %+v",
							tb.Generation, i, tb.Matches[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// The table must still be coherent after the storm.
	if err := ctx.Err(); err != nil {
		t.Fatal(err)
	}
	tb, err := tab.MatchBatchAt(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleFor(tb.Generation)
	for i := range want {
		if tb.Matches[i] != want[i] {
			t.Fatalf("post-storm query %d diverged", i)
		}
	}
}
