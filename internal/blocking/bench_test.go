package blocking

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
)

// benchRecords synthesizes n organization-style records with a shared
// vocabulary, so postings lists are realistically dense.
func benchRecords(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	adjectives := []string{"northern", "southern", "eastern", "western", "central",
		"united", "royal", "national", "first", "metropolitan", "pacific", "atlantic"}
	nouns := []string{"institute", "university", "laboratory", "federation", "company",
		"society", "college", "museum", "observatory", "foundation", "bureau", "council"}
	fields := []string{"technology", "science", "history", "medicine", "arts",
		"engineering", "commerce", "agriculture", "music", "astronomy"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %s of %s %d",
			adjectives[rng.Intn(len(adjectives))],
			nouns[rng.Intn(len(nouns))],
			fields[rng.Intn(len(fields))],
			rng.Intn(200))
	}
	return out
}

// BenchmarkBlockingTopK measures one steady-state top-k query with a
// reused scratch and destination buffer: the -benchmem allocation count
// must be amortized zero.
func BenchmarkBlockingTopK(b *testing.B) {
	left := benchRecords(1, 10000)
	queries := benchRecords(2, 512)
	ix := NewIndex(left)
	k := K(len(left), DefaultBeta)
	sc := ix.NewScratch()
	var dst []Candidate
	// Warm up the scratch growth (stamps, weight tables, heap, buffers).
	for _, q := range queries {
		dst = ix.AppendTopK(dst[:0], sc, q, k, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.AppendTopK(dst[:0], sc, queries[i%len(queries)], k, -1)
	}
}

// ledgerShape is the reference table the serving benchmarks query
// (benchgen task 0 at scale 10, |L| = 6,270) with n never-seen queries,
// each a perturbation of a random reference row. Its IDF is steep: a
// query's rarest grams reach a few rows, unlike benchRecords' flat one.
func ledgerShape(n int) (left, queries []string) {
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 10})
	left = task.LeftKey()
	rng := rand.New(rand.NewSource(7))
	prof := benchgen.DefaultProfile()
	queries = make([]string, n)
	for i := range queries {
		queries[i] = prof.Apply(rng, left[rng.Intn(len(left))])
	}
	return left, queries
}

// BenchmarkBlockingTopKLedgerShape measures one steady-state top-k on
// the ledger's reference table: a perturbed row's query top-k, and a
// row's self top-k (the two top-k calls of a serving miss).
func BenchmarkBlockingTopKLedgerShape(b *testing.B) {
	left, queries := ledgerShape(512)
	ix := NewIndex(left)
	k := K(len(left), DefaultBeta)
	sc := ix.NewScratch()
	var dst []Candidate
	for _, q := range queries {
		dst = ix.AppendTopK(dst[:0], sc, q, k, -1)
	}
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = ix.AppendTopK(dst[:0], sc, queries[i%len(queries)], k, -1)
		}
	})
	b.Run("self", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = ix.AppendTopKSelf(dst[:0], sc, (i*7919)%len(left), k)
		}
	})
}

// BenchmarkBlockingTopKSeed measures the seed implementation (fresh map
// accumulator + full sort per query) on the same workload, as the baseline
// the heap path must beat.
func BenchmarkBlockingTopKSeed(b *testing.B) {
	left := benchRecords(1, 10000)
	queries := benchRecords(2, 512)
	seed := newSeedIndex(left)
	k := K(len(left), DefaultBeta)
	queryGrams := make([][]string, len(queries))
	for i, q := range queries {
		queryGrams[i] = grams(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed.topK(queryGrams[i%len(queryGrams)], k, -1)
	}
}

// benchWorkerCounts is 1 plus the machine's core count when they differ.
func benchWorkerCounts() []int {
	ps := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ps = append(ps, n)
	}
	return ps
}

func workersName(p int) string {
	if p == 1 {
		return "sequential"
	}
	return fmt.Sprintf("parallel%d", p)
}

// BenchmarkBlock runs full blocking (L–R and L–L) over a 10k-record
// reference table, sequential versus all-core.
func BenchmarkBlock(b *testing.B) {
	left := benchRecords(1, 10000)
	right := benchRecords(2, 2000)
	for _, p := range benchWorkerCounts() {
		b.Run(workersName(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Block(left, right, DefaultBeta, p)
			}
		})
	}
}

// BenchmarkBlockSelf runs the self-join blocking path (no right table) on
// 10k records.
func BenchmarkBlockSelf(b *testing.B) {
	records := benchRecords(3, 10000)
	for _, p := range benchWorkerCounts() {
		b.Run(workersName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Block(records, nil, DefaultBeta, p)
			}
		})
	}
}
