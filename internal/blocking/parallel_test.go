package blocking

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// seedIndex is the original (pre-parallel) blocking index, kept as the
// reference oracle: string-keyed postings, IDF weights log(1 + n/df), a
// map[int32]float64 accumulator and a full sort. It shares nothing with
// TableIndex but the grams() tokenizer, and every query path must
// reproduce it exactly, scores and tie-break order included.
type seedIndex struct {
	n        int
	postings map[string][]int32 // by gram, record ids ascending
}

func newSeedIndex(keys []string) *seedIndex {
	o := &seedIndex{n: len(keys), postings: make(map[string][]int32)}
	for i, key := range keys {
		for _, g := range grams(key) {
			o.postings[g] = append(o.postings[g], int32(i))
		}
	}
	return o
}

// topK scores queryGrams (lexicographic order, as grams() returns them)
// and returns the top k records other than exclude.
func (o *seedIndex) topK(queryGrams []string, k int, exclude int) []Candidate {
	if k <= 0 || o.n == 0 {
		return nil
	}
	scores := make(map[int32]float64)
	for _, g := range queryGrams {
		post, ok := o.postings[g]
		if !ok {
			continue
		}
		w := math.Log(1 + float64(o.n)/float64(len(post)))
		for _, rec := range post {
			if int(rec) == exclude {
				continue
			}
			scores[rec] += w
		}
	}
	cands := make([]Candidate, 0, len(scores))
	for id, sc := range scores {
		cands = append(cands, Candidate{ID: id, Score: sc})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].ID < cands[b].ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

func candidateListsEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tieHeavyRecords produces many duplicate and near-duplicate records so
// equal TF-IDF scores (and therefore id tie-breaks) are common.
func tieHeavyRecords(rng *rand.Rand, n int) []string {
	base := []string{
		"alpha bravo charlie", "alpha bravo delta", "echo foxtrot golf",
		"hotel india juliet", "kilo lima mike", "november oscar papa",
	}
	out := make([]string, n)
	for i := range out {
		out[i] = base[rng.Intn(len(base))]
		if rng.Intn(3) == 0 {
			out[i] += fmt.Sprintf(" %d", rng.Intn(4))
		}
	}
	return out
}

// TestTopKMatchesSeedImplementation checks the pruned threshold scan
// against the seed map+sort oracle on tie-heavy data: identical ids,
// identical scores, identical order.
func TestTopKMatchesSeedImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := tieHeavyRecords(rng, 200)
	ix := NewIndex(left)
	seed := newSeedIndex(left)
	sc := ix.NewScratch()
	queries := append(tieHeavyRecords(rng, 50),
		"", "   ", "zzz unknown grams only", "Alpha  BRAVO charlie")
	for _, k := range []int{1, 3, 14, 200} {
		for _, q := range queries {
			want := seed.topK(grams(q), k, -1)
			got := ix.AppendTopK(nil, sc, q, k, -1)
			if !candidateListsEqual(got, want) {
				t.Fatalf("k=%d query=%q:\n got %v\nwant %v", k, q, got, want)
			}
		}
		for i := 0; i < 40; i++ {
			want := seed.topK(grams(left[i]), k, i)
			got := ix.AppendTopKSelf(nil, sc, i, k)
			if !candidateListsEqual(got, want) {
				t.Fatalf("k=%d self=%d:\n got %v\nwant %v", k, i, got, want)
			}
		}
	}
}

// TestScratchReuseIsStateless verifies that reusing one scratch across
// many queries never leaks state between them.
func TestScratchReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	left := tieHeavyRecords(rng, 120)
	ix := NewIndex(left)
	sc := ix.NewScratch()
	queries := tieHeavyRecords(rng, 30)
	for trial := 0; trial < 3; trial++ {
		for _, q := range queries {
			fresh := ix.TopK(q, 9, -1) // fresh scratch every call
			reused := ix.AppendTopK(nil, sc, q, 9, -1)
			if !candidateListsEqual(fresh, reused) {
				t.Fatalf("scratch reuse diverged for %q: %v vs %v", q, fresh, reused)
			}
		}
	}
}

// TestBlockParallelEquivalence asserts Block with Parallelism 1 and N
// produce identical candidate lists — ids, scores, and tie-break order on
// equal TF-IDF scores — per the determinism contract the engine relies on.
func TestBlockParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	left := tieHeavyRecords(rng, 300)
	right := tieHeavyRecords(rng, 180)
	seq := Block(left, right, 1.5, 1)
	for _, p := range []int{2, 4, 8} {
		par := Block(left, right, 1.5, p)
		if par.K != seq.K {
			t.Fatalf("p=%d: K %d != %d", p, par.K, seq.K)
		}
		for j := range seq.LR {
			if !candidateListsEqual(seq.LR[j], par.LR[j]) {
				t.Fatalf("p=%d: LR[%d] differs:\nseq %v\npar %v", p, j, seq.LR[j], par.LR[j])
			}
		}
		for i := range seq.LL {
			if !candidateListsEqual(seq.LL[i], par.LL[i]) {
				t.Fatalf("p=%d: LL[%d] differs:\nseq %v\npar %v", p, i, seq.LL[i], par.LL[i])
			}
		}
	}
}

// TestBlockSelfParallelEquivalence is the same contract for the self-join
// blocking path (no right table).
func TestBlockSelfParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	records := tieHeavyRecords(rng, 250)
	seq := Block(records, nil, 1.0, 1)
	par := Block(records, nil, 1.0, 8)
	if par.K != seq.K {
		t.Fatalf("K %d != %d", par.K, seq.K)
	}
	for i := range seq.LL {
		if !candidateListsEqual(seq.LL[i], par.LL[i]) {
			t.Fatalf("LL[%d] differs:\nseq %v\npar %v", i, seq.LL[i], par.LL[i])
		}
	}
}

// TestBlockSelfMatchesBlockLL: the self-join's blocking (no right table)
// must agree with the LL half of a join's blocking — the right records
// share the job space but never the index or the budget.
func TestBlockSelfMatchesBlockLL(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	records := tieHeavyRecords(rng, 150)
	full := Block(records, tieHeavyRecords(rng, 70), 1.0, 4)
	self := Block(records, nil, 1.0, 4)
	if len(self.LR) != 0 {
		t.Fatalf("self-join blocking returned %d LR lists", len(self.LR))
	}
	for i := range full.LL {
		if !candidateListsEqual(full.LL[i], self.LL[i]) {
			t.Fatalf("LL[%d] differs between the join and the self-join", i)
		}
	}
}

// TestQueryNormalizationMatchesSeed pins the inlined byte-level
// normalization to the reference normalize() on unicode, whitespace, and
// case edge cases.
func TestQueryNormalizationMatchesSeed(t *testing.T) {
	left := []string{
		"café au lait", "CAFE AU LAIT", "  spaced   out  record  ",
		"ÀÉÎÕÜ accents", "日本語 テスト", "tabs\tand\nnewlines",
		"mixed 日本 Ascii", "ends with space ", " leading",
	}
	ix := NewIndex(left)
	seed := newSeedIndex(left)
	sc := ix.NewScratch()
	for _, q := range append(left, "Café  AU\tlait", "ÀÉÎÕÜ", "日本語") {
		want := seed.topK(grams(q), 5, -1)
		got := ix.AppendTopK(nil, sc, q, 5, -1)
		if !candidateListsEqual(got, want) {
			t.Fatalf("query %q: got %v want %v", q, got, want)
		}
	}
}
