package weights

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestEqualVector(t *testing.T) {
	v := Equal.Vector([]string{"a", "b", "a"}, nil)
	if v["a"] != 2 || v["b"] != 1 {
		t.Errorf("Equal.Vector = %v", v)
	}
}

func TestIDFMonotonicInRarity(t *testing.T) {
	docs := [][]string{
		{"team", "football", "lsu"},
		{"team", "football", "tigers"},
		{"team", "baseball", "badgers"},
		{"team", "hockey", "wolves"},
	}
	s := NewStats(docs)
	if s.Docs() != 4 {
		t.Fatalf("Docs = %d", s.Docs())
	}
	// df(team)=4, df(football)=2, df(lsu)=1
	if !(s.IDF("team") < s.IDF("football") && s.IDF("football") < s.IDF("lsu")) {
		t.Errorf("IDF not monotone: team=%f football=%f lsu=%f",
			s.IDF("team"), s.IDF("football"), s.IDF("lsu"))
	}
	// exact: log(1 + 4/4) = log 2
	if got := s.IDF("team"); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("IDF(team) = %f, want log 2", got)
	}
}

func TestIDFDuplicateTokensInDocCountOnce(t *testing.T) {
	s := NewStats([][]string{{"x", "x", "x"}, {"y"}})
	// df(x) must be 1, not 3
	if got, want := s.IDF("x"), math.Log(1+2.0/1); math.Abs(got-want) > 1e-12 {
		t.Errorf("IDF(x) = %f, want %f", got, want)
	}
}

func TestIDFUnseenToken(t *testing.T) {
	s := NewStats([][]string{{"a"}, {"b"}})
	if got, want := s.IDF("zzz"), math.Log(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("IDF(unseen) = %f, want log 3", got)
	}
}

func TestIDFVector(t *testing.T) {
	s := NewStats([][]string{{"a", "b"}, {"a"}})
	v := IDF.Vector([]string{"a", "a", "b"}, s)
	wantA := 2 * s.IDF("a")
	wantB := 1 * s.IDF("b")
	if math.Abs(v["a"]-wantA) > 1e-12 || math.Abs(v["b"]-wantB) > 1e-12 {
		t.Errorf("IDF.Vector = %v, want a=%f b=%f", v, wantA, wantB)
	}
}

func TestEmptyStats(t *testing.T) {
	s := NewStats(nil)
	if got := s.IDF("x"); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("IDF on empty stats = %f", got)
	}
}

func TestSchemeNames(t *testing.T) {
	if Equal.String() != "EW" || IDF.String() != "IDFW" {
		t.Error("scheme names wrong")
	}
	if len(Options()) != 2 {
		t.Error("want 2 weighting options")
	}
}

// closedIDF is the definition IDF must keep returning to the bit.
func closedIDF(docs, df int) float64 {
	if df < 1 {
		df = 1
	}
	if docs < 1 {
		docs = 1
	}
	return math.Log(1 + float64(docs)/float64(df))
}

// expectClosedForm checks the weight of every vocabulary token — present,
// removed, or never seen — against the closed form under the model's
// (docs, df), twice, so both the computing read and the memoized read are
// compared.
func expectClosedForm(t *testing.T, w *IDFTable, docs int, df map[string]int, vocab []string, step int) {
	t.Helper()
	if w.Docs() != docs {
		t.Fatalf("step %d: Docs = %d, want %d", step, w.Docs(), docs)
	}
	for pass := 0; pass < 2; pass++ {
		for _, tok := range vocab {
			got, want := w.Weight(df[tok]), closedIDF(docs, df[tok])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d pass %d: weight of %q = %v, want %v (docs %d, df %d)",
					step, pass, tok, got, want, docs, df[tok])
			}
		}
	}
}

// TestIDFMemoMatchesClosedFormUnderMutations drives a seeded sequence of
// document adds and removes and pins IDFTable.Weight to
// math.Log(1 + N/df) bit for bit after every step: a mutation changes N,
// so every memoized weight must be forgotten, across table growth and
// shrinking document counts alike.
func TestIDFMemoMatchesClosedFormUnderMutations(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		vocab := make([]string, 40)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("tok%02d", i)
		}
		probe := append(append([]string(nil), vocab...), "never-seen", "")
		var w IDFTable
		df := map[string]int{}
		var live [][]string
		expectClosedForm(t, &w, 0, df, probe, -1)
		for step := 0; step < 400; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				for _, tok := range live[i] {
					df[tok]--
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				var doc []string
				for _, i := range rng.Perm(len(vocab))[:1+rng.Intn(6)] {
					// Skew toward low ids so some tokens get a high df.
					doc = append(doc, vocab[i*i/len(vocab)])
				}
				sort.Strings(doc)
				doc = slices.Compact(doc)
				for _, tok := range doc {
					df[tok]++
				}
				live = append(live, doc)
			}
			w.SetDocs(len(live))
			expectClosedForm(t, &w, len(live), df, probe, step)
		}

		// Batch-built statistics answer the same bits.
		s := NewStats(live)
		for _, tok := range probe {
			if math.Float64bits(s.IDF(tok)) != math.Float64bits(w.Weight(df[tok])) {
				t.Fatalf("NewStats: IDF(%q) differs from the incrementally maintained table", tok)
			}
		}
	}
}

// TestIDFRestoredAboveDocs: a df larger than the document count (only a
// hand-made snapshot can say so) falls outside the memo table and still
// answers the closed form.
func TestIDFRestoredAboveDocs(t *testing.T) {
	var w IDFTable
	w.SetDocs(2)
	if got, want := w.Weight(9), closedIDF(2, 9); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Weight = %v, want %v", got, want)
	}
}

// TestIDFConcurrentReaders is the read-path contract under -race: many
// goroutines (sharded learning, read-locked table queries) read and fill
// the memo table at once and all see the closed form.
func TestIDFConcurrentReaders(t *testing.T) {
	docs := make([][]string, 200)
	for i := range docs {
		for j := 0; j <= i%17; j++ {
			docs[i] = append(docs[i], fmt.Sprintf("t%d", j))
		}
	}
	s := NewStats(docs)
	df := map[string]int{}
	for _, d := range docs {
		for _, tok := range d {
			df[tok]++
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tok := fmt.Sprintf("t%d", (i+g)%20) // t17..t19 are never seen
				if got, want := s.IDF(tok), closedIDF(len(docs), df[tok]); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("IDF(%q) = %v, want %v", tok, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIDFNeverAllocates: the read path is map lookup → atomic load (or one
// math.Log on a table miss); the table itself is only ever allocated by
// the constructors and SetDocs growth.
func TestIDFNeverAllocates(t *testing.T) {
	s := NewStats([][]string{{"a", "b"}, {"a"}})
	var w IDFTable
	w.SetDocs(2)
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		w.SetDocs(3) // changes N: the next reads recompute
		w.SetDocs(2)
		sink += s.IDF("a") + s.IDF("b") + s.IDF("zzz") + w.Weight(1) + w.Weight(2) + w.Weight(0)
	}); n != 0 {
		t.Errorf("IDF after a mutation: %.1f allocs, want 0", n)
	}
	_ = sink
}

// TestIDFMemoizesByDF: the first read of a (N, df) pair stores its bits at
// idf[df] — so the second performs no math.Log — and a change of N
// empties the table again.
func TestIDFMemoizesByDF(t *testing.T) {
	s := NewStats([][]string{{"a", "b"}, {"a"}})
	if len(s.w.idf) != 3 {
		t.Fatalf("table spans %d entries, want docs+1 = 3", len(s.w.idf))
	}
	v := s.IDF("a") // df 2
	if got := s.w.idf[2].Load(); got != math.Float64bits(v) || got == 0 {
		t.Fatalf("idf[2] = %#x after IDF(a) = %v", got, v)
	}
	if s.w.idf[1].Load() != 0 {
		t.Fatal("idf[1] filled before any df-1 token was read")
	}
	w := &s.w
	w.SetDocs(1)
	for df := range w.idf {
		if w.idf[df].Load() != 0 {
			t.Fatalf("idf[%d] survived a shrinking SetDocs", df)
		}
	}
	w.Weight(1)
	w.SetDocs(40) // outgrows the table
	if len(w.idf) <= 40 {
		t.Fatalf("table spans %d entries after SetDocs(40)", len(w.idf))
	}
	for df := range w.idf {
		if w.idf[df].Load() != 0 {
			t.Fatalf("idf[%d] survived a growing SetDocs", df)
		}
	}
}
