package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

// sameMatch is Match equality to the bit (== would let 0 equal -0).
func sameMatch(a, b Match) bool {
	return a.Left == b.Left && a.Config == b.Config &&
		math.Float64bits(a.Distance) == math.Float64bits(b.Distance) &&
		math.Float64bits(a.Precision) == math.Float64bits(b.Precision)
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
