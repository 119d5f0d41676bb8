package autofj

// The root package keeps two benchmarks: the profiled serving path that
// CI archives as its table CPU profile, and the same path over a large
// vocabulary. Timings of record come from the benchmark ledger under
// bench/; allocation counts are pinned by TestAllocationBudgets, which
// shares this file's fixtures.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// servingProgram is a fixed two-configuration program so the serving
// fixtures measure the query path, not a learning run.
func servingProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []core.ConfigurationSpec{
			{Preprocess: "L", Distance: "ED", Threshold: 0.25},
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.35},
		},
		BlockingBeta: 1.0,
	}
}

// benchTable10k compiles the serving program against a 10k-row reference
// table through the mutable-table path.
func benchTable10k(tb testing.TB, opt Options) *Table {
	tb.Helper()
	left, _ := blockingBenchTables(10000, 1)
	rows := make([][]string, len(left))
	for i, v := range left {
		rows[i] = []string{v}
	}
	tab, err := servingProgram().NewTable(1, rows, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// addDelta appends 256 rows to tab's mutable delta, the steady state
// between compactions.
func addDelta(tb testing.TB, tab *Table) {
	tb.Helper()
	extra := make([][]string, 256)
	for i := range extra {
		extra[i] = []string{fmt.Sprintf("delta resident record %d", i)}
	}
	if _, err := tab.Add(extra); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTableMatchWithDelta measures per-query latency when answers
// must merge the compiled segments with a populated delta (256 rows) —
// the steady state between compactions. The result cache is off so that
// every op scores, however many times the query set wraps.
func BenchmarkTableMatchWithDelta(b *testing.B) {
	tab := benchTable10k(b, Options{QueryCacheSize: -1})
	_, right := blockingBenchTables(1, 2000)
	addDelta(b, tab)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Match(ctx, right[i%len(right)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableMatchBigVocab is BenchmarkTableMatchWithDelta's query
// path over a table whose vocabulary is large: 40k rows of 3–6 words
// drawn from 10^5 random words. A miss prepares the query once into
// tables as long as the vocabulary, so this is the shape where that
// costs most; side_B reports their bytes per pooled scratch (8 B per slot
// of the program's one IDF word representation, with the tables' 1/4
// growth slack).
func BenchmarkTableMatchBigVocab(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	words := make([]string, 100000)
	for i := range words {
		w := make([]byte, 4+rng.Intn(6))
		for k := range w {
			w[k] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	record := func() string {
		n := 3 + rng.Intn(4)
		parts := make([]string, n)
		for k := range parts {
			parts[k] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	rows := make([][]string, 40000)
	distinct := map[string]bool{}
	for i := range rows {
		rows[i] = []string{record()}
		for _, w := range strings.Fields(rows[i][0]) {
			distinct[w] = true
		}
	}
	queries := make([]string, 2000)
	for i := range queries {
		q := []byte(rows[rng.Intn(len(rows))][0])
		q[rng.Intn(len(q))] = byte('a' + rng.Intn(26)) // a typo
		queries[i] = string(q)
	}
	tab, err := servingProgram().NewTable(1, rows, Options{QueryCacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Match(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*(len(distinct)+len(distinct)/4)), "side_B")
}

// blockingBenchTables synthesizes a ≥10k-record reference table and query
// table for the serving fixtures.
func blockingBenchTables(nLeft, nRight int) (left, right []string) {
	rng := rand.New(rand.NewSource(17))
	adj := []string{"northern", "southern", "united", "royal", "national", "central",
		"pacific", "metropolitan", "first", "imperial"}
	noun := []string{"institute", "university", "museum", "society", "college",
		"laboratory", "federation", "observatory", "council", "bureau"}
	field := []string{"science", "history", "technology", "arts", "medicine",
		"commerce", "astronomy", "agriculture"}
	gen := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s %s of %s %d", adj[rng.Intn(len(adj))],
				noun[rng.Intn(len(noun))], field[rng.Intn(len(field))], rng.Intn(300))
		}
		return out
	}
	return gen(nLeft), gen(nRight)
}
