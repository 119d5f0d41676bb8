package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameMatch is Match equality to the bit (== would let 0 equal -0).
func sameMatch(a, b Match) bool {
	return a.Left == b.Left && a.Config == b.Config &&
		math.Float64bits(a.Distance) == math.Float64bits(b.Distance) &&
		math.Float64bits(a.Precision) == math.Float64bits(b.Precision)
}

// cacheTestMultiProgram is a fixed two-column program over the movie
// tables (title, director; a third noise column is outside the program
// but inside the blocking key).
func cacheTestMultiProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.5},
			{Preprocess: "L", Distance: "ED", Threshold: 0.3},
		},
		Columns:      []int{0, 1},
		Weights:      []float64{0.7, 0.3},
		BlockingBeta: 1,
	}
}

// cacheCase is one program with its reference rows, rows to add later,
// and a pool of distinct queries larger than the test cache.
type cacheCase struct {
	name    string
	prog    *Program
	width   int
	base    [][]string
	extra   [][]string
	queries [][]string
}

func cacheCases(t *testing.T) []cacheCase {
	L, R := makeTask(t, 53, 9)
	single := cacheCase{
		name: "single", prog: tableTestProgram(), width: 1,
		base: toRows(L[:120]), extra: toRows(L[120:]), queries: toRows(R[:12]),
	}
	single.queries = append(single.queries, []string{""}, []string{"zzz qqq unjoinable 9"})

	leftCols, rightCols, _ := makeMovieTables(true)
	transpose := func(cols [][]string) [][]string {
		rows := make([][]string, len(cols[0]))
		for i := range rows {
			for _, col := range cols {
				rows[i] = append(rows[i], col[i])
			}
		}
		return rows
	}
	left, right := transpose(leftCols), transpose(rightCols)
	multi := cacheCase{
		name: "multi", prog: cacheTestMultiProgram(), width: 3,
		base: left[:70], extra: left[70:], queries: right[:12],
	}
	// Same program columns, different noise cell: a distinct cache key.
	twin := append([]string(nil), right[0]...)
	twin[2] = "other noise"
	multi.queries = append(multi.queries, twin, []string{"", "", ""})
	return []cacheCase{single, multi}
}

// TestTableQueryCacheOnOff is the result cache's own contract: a seeded
// Add/Remove/Compact/Match/MatchBatchAt sequence answers identically, to
// the bit, on a table with an 8-entry cache and on one with the cache
// off. The query pool is larger than the cache, so the sequence crosses
// the flush-at-cap edge, and every mutation crosses the
// generation-invalidation edge, while hits are being served.
func TestTableQueryCacheOnOff(t *testing.T) {
	ctx := context.Background()
	const cacheCap = 8
	for _, c := range cacheCases(t) {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				on, err := c.prog.NewTable(c.width, c.base, Options{Parallelism: 1, QueryCacheSize: cacheCap})
				if err != nil {
					t.Fatal(err)
				}
				off, err := c.prog.NewTable(c.width, c.base, Options{Parallelism: 1, QueryCacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				extra := c.extra
				matched, flushed := 0, false
				both := func(step int, do func(*Table) error) {
					t.Helper()
					for _, tab := range []*Table{on, off} {
						if err := do(tab); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
				// batch answers rows on both tables, compares, and checks the
				// per-row cache verdicts against the table's own counters.
				batch := func(step int, rows [][]string) []bool {
					t.Helper()
					hits0, _ := on.QueryCacheStats()
					got, err := on.MatchBatchAt(ctx, rows)
					if err != nil {
						t.Fatal(err)
					}
					want, err := off.MatchBatchAt(ctx, rows)
					if err != nil {
						t.Fatal(err)
					}
					hits1, _ := on.QueryCacheStats()
					served := uint64(0)
					for i := range rows {
						if !sameMatch(got.Matches[i], want.Matches[i]) {
							t.Fatalf("step %d, row %q: cache on %+v, cache off %+v", step, rows[i], got.Matches[i], want.Matches[i])
						}
						if want.Cached[i] {
							t.Fatalf("step %d: a disabled cache reported a hit", step)
						}
						if got.Cached[i] {
							served++
						}
						if got.Matches[i].Left >= 0 {
							matched++
						}
					}
					if served != hits1-hits0 {
						t.Fatalf("step %d: %d rows reported cached, the counters moved by %d", step, served, hits1-hits0)
					}
					return got.Cached
				}
				for step := 0; step < 150; step++ {
					before, gen := on.QueryCacheLen(), on.Generation()
					switch op := rng.Intn(12); {
					case op == 0 && len(extra) > 0:
						n := min(1+rng.Intn(3), len(extra))
						both(step, func(tab *Table) error { _, err := tab.Add(extra[:n]); return err })
						extra = extra[n:]
					case op == 1 && on.Len() > 20:
						d := rng.Intn(on.Len())
						both(step, func(tab *Table) error { _, err := tab.Remove([]int{d}); return err })
					case op == 2:
						both(step, func(tab *Table) error { _, err := tab.Compact(ctx); return err })
					case op < 8:
						q := c.queries[rng.Intn(len(c.queries))]
						var got, want Match
						if c.width == 1 && rng.Intn(2) == 0 {
							got, _, err = on.Match(ctx, q[0])
							if err == nil {
								want, _, err = off.Match(ctx, q[0])
							}
						} else {
							got, _, err = on.MatchRow(ctx, q)
							if err == nil {
								want, _, err = off.MatchRow(ctx, q)
							}
						}
						if err != nil {
							t.Fatal(err)
						}
						if !sameMatch(got, want) {
							t.Fatalf("step %d, query %q: cache on %+v, cache off %+v", step, q, got, want)
						}
					default:
						rows := make([][]string, 1+rng.Intn(5))
						for i := range rows {
							rows[i] = c.queries[rng.Intn(len(c.queries))]
						}
						batch(step, rows)
					}
					if on.Generation() != gen {
						// Distinct queries right after a mutation (a compaction
						// with nothing to fold is none): every one of them was
						// answered under an older generation at best, so none
						// may be served from the cache.
						for i, cached := range batch(step, c.queries[:cacheCap]) {
							if cached {
								t.Fatalf("step %d: query %q served from the cache across a mutation", step, c.queries[i])
							}
						}
					}
					after := on.QueryCacheLen()
					if after > cacheCap {
						t.Fatalf("step %d: %d entries resident, cap %d", step, after, cacheCap)
					}
					flushed = flushed || after < before
				}
				hits, _ := on.QueryCacheStats()
				if hits == 0 || matched == 0 || !flushed {
					t.Errorf("vacuous run: %d hits, %d matched answers, flushed at cap: %v", hits, matched, flushed)
				}
				if hits, _ := off.QueryCacheStats(); hits != 0 || off.QueryCacheLen() != 0 {
					t.Errorf("disabled cache: %d hits, %d entries", hits, off.QueryCacheLen())
				}
			})
		}
	}
}

// TestAppendRowKeyUnambiguous: the composite cache key of a row must keep
// cell boundaries — no two distinct rows may share a key, whatever bytes
// the cells hold.
func TestAppendRowKeyUnambiguous(t *testing.T) {
	rows := [][]string{
		{"ab", "c"},
		{"a", "bc"},
		{"abc"},
		{"ab,c"},
		{"a|b", "c"},
		{"a", "b|c"},
		{"ab|1:c"},
		{"ab", ""},
		{"a", "b"},
		{"", "ab"},
		{"\x02ab"}, // a cell that starts with what a length prefix looks like
		{"\x01a", "b"},
		{""},
		{"", ""},
		{},
	}
	seen := map[string][]string{}
	for _, row := range rows {
		k := string(appendRowKey(nil, row))
		if prev, dup := seen[k]; dup {
			t.Errorf("rows %q and %q share the key %q", prev, row, k)
		}
		seen[k] = row
	}
}

// TestQueryCacheSkipsLongKeys: a query whose cache key is longer than
// maxCachedKey is answered but leaves nothing behind — no cache entry, no
// later hit, no pooled scratch holding its key buffer — while a key of
// exactly maxCachedKey bytes is cached as any other.
func TestQueryCacheSkipsLongKeys(t *testing.T) {
	ctx := context.Background()
	L, _ := makeTask(t, 53, 9)
	tab, err := tableTestProgram().NewTable(1, toRows(L[:60]), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// query returns a distinct query of n bytes: reference row i, padded.
	query := func(i, n int) []string {
		q := L[i] + " "
		return []string{q + strings.Repeat("x", n-len(q))}
	}
	for i := range 3 {
		q := query(i, maxCachedKey+1)
		for range 2 {
			tb, err := tab.MatchBatchAt(ctx, [][]string{q})
			if err != nil {
				t.Fatal(err)
			}
			if tb.Cached[0] {
				t.Fatalf("a %d-byte query came back cached", len(q[0]))
			}
		}
		if n := tab.QueryCacheLen(); n != 0 {
			t.Fatalf("%d entries resident after %d queries past the key cap", n, i+1)
		}
	}
	var drawn []*tableScratch
	for range 4 {
		ms := tab.getScratch()
		if cap(ms.kbuf) > maxCachedKey {
			t.Errorf("a pooled scratch keeps a %d-byte key buffer", cap(ms.kbuf))
		}
		drawn = append(drawn, ms)
	}
	for _, ms := range drawn {
		tab.putScratch(ms)
	}

	q := query(3, maxCachedKey)
	first, err := tab.MatchBatchAt(ctx, [][]string{q})
	if err != nil {
		t.Fatal(err)
	}
	second, err := tab.MatchBatchAt(ctx, [][]string{q})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached[0] || !second.Cached[0] || !sameMatch(first.Matches[0], second.Matches[0]) {
		t.Errorf("a key of exactly %d bytes: cached %v then %v, matches %+v and %+v",
			maxCachedKey, first.Cached[0], second.Cached[0], first.Matches[0], second.Matches[0])
	}
	if n := tab.QueryCacheLen(); n != 1 {
		t.Errorf("%d entries resident, want the one at the cap", n)
	}
}
