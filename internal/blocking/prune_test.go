package blocking

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// handIndex builds a one-segment TableIndex, every row alive, from each
// row's gram strings, and the seed oracle over the same postings.
func handIndex(t *testing.T, rows [][]string) (*TableIndex, *seedIndex) {
	t.Helper()
	o := &seedIndex{n: len(rows), postings: make(map[string][]int32)}
	for i, gs := range rows {
		for _, g := range gs {
			o.postings[g] = append(o.postings[g], int32(i))
		}
	}
	vocab := make([]string, 0, len(o.postings))
	for g := range o.postings {
		vocab = append(vocab, g)
	}
	slices.Sort(vocab)
	postings := make([][]int32, len(vocab))
	docGrams := make([][]int32, len(rows))
	for id, g := range vocab {
		postings[id] = o.postings[g]
		for _, r := range o.postings[g] {
			docGrams[r] = append(docGrams[r], int32(id))
		}
	}
	seg, err := NewSegmentFromParts(len(rows), vocab, postings, docGrams)
	if err != nil {
		t.Fatal(err)
	}
	tx := NewTableIndex()
	tx.AttachSegment(seg, allAlive(len(rows)), true)
	return tx, o
}

// TestTopKStopRuleBoundary checks the scan's stop rule where it is
// tightest: when the unvisited grams' summed weight equals the k-th score
// at a list boundary, a row reached only through those grams can still
// tie the k-th row and win on its lower dense id, so the scan must go on.
// Each case self-queries row q (its grams are the query) against the seed
// oracle; the a*/c* grams share one df, so they weigh the same and the
// c* lists are visited last (ties by gram id, which is lexicographic).
func TestTopKStopRuleBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]string
		q, k int
		want int32 // the tying row the scan must reach
	}{
		{
			// r (df 2) is rarer and visited first. Row 3 scores w(a1)+w(a2)
			// at the a* lists; row 1 scores w(c1)+w(c2), the same sum, only
			// at the last two lists, whose weight is then all that is left.
			name: "common grams last",
			rows: [][]string{
				{"a1"}, {"c1", "c2"}, {"r"}, {"a1", "a2"}, {"a2"}, {"c1"}, {"c2"},
				{"a1", "a2", "c1", "c2", "r"},
			},
			q: 7, k: 1, want: 1,
		},
		{
			// Every query gram has df 3. Rows 4 and 5 fill the heap at the
			// a* lists with score 2w, and the c* lists left weigh 2w too.
			name: "equal df",
			rows: [][]string{
				{"c1", "c2"}, {"c1"}, {"c2"}, {"x"}, {"a1", "a2"}, {"a1", "a2"},
				{"a1", "a2", "c1", "c2"},
			},
			q: 6, k: 2, want: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx, o := handIndex(t, tc.rows)
			want := o.topK(tc.rows[tc.q], tc.k, tc.q)
			if !slices.ContainsFunc(want, func(c Candidate) bool { return c.ID == tc.want }) {
				t.Fatalf("oracle %v lacks row %d: the case no longer tests the boundary", want, tc.want)
			}
			got := tx.AppendTopKSelf(nil, NewTableScratch(), tc.q, tc.k)
			if !candidateListsEqual(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
		})
	}
}

// TestScratchGenerationWrap runs query and self top-k across the wrap of
// the scratch's generation counter against the seed oracle. Before the
// wrap, the row stamps are set to the small generations a previous cycle
// of the counter would have left and the next cycle reuses, so a wrap
// that did not clear them would skip rows.
func TestScratchGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	left := tieHeavyRecords(rng, 120)
	tx := BuildTableIndex(left, 1)
	extra := tieHeavyRecords(rng, 10)
	for _, key := range extra {
		tx.AddDelta(key)
	}
	live := append(slices.Clone(left), extra...)
	o := newSeedIndex(live)
	queries := tieHeavyRecords(rng, 40)
	sc := NewTableScratch()
	check := func(i int) {
		t.Helper()
		k := 1 + i%13
		q := queries[i%len(queries)]
		if got, want := tx.AppendTopK(nil, sc, q, k), o.topK(grams(q), k, -1); !candidateListsEqual(got, want) {
			t.Fatalf("gen %d: k=%d query=%q:\n got %v\nwant %v", sc.gen, k, q, got, want)
		}
		d := (i * 37) % len(live)
		if got, want := tx.AppendTopKSelf(nil, sc, d, k), o.topK(grams(live[d]), k, d); !candidateListsEqual(got, want) {
			t.Fatalf("gen %d: k=%d self=%d:\n got %v\nwant %v", sc.gen, k, d, got, want)
		}
	}
	for i := range 10 {
		check(i)
	}
	for i := range sc.rowStamp {
		sc.rowStamp[i] = uint32(1 + i%16)
	}
	sc.gen = math.MaxUint32 - 2
	for i := range 40 {
		check(i)
	}
	if sc.gen >= math.MaxUint32-2 {
		t.Fatalf("generation %d did not wrap", sc.gen)
	}
}

// TestTopKWorkCount bounds the scan's work on the ledger's reference
// table (ledgerShape, |L| = 6,270): over 200 perturbed-row queries and
// 200 self queries, the mean number of rows exact-scored stays under 15 %
// of |L|, so a scan that stopped pruning fails here without a clock.
func TestTopKWorkCount(t *testing.T) {
	left, queries := ledgerShape(200)
	ix := NewIndex(left)
	k := K(len(left), DefaultBeta)
	sc := ix.NewScratch()
	var dst []Candidate
	for _, q := range queries {
		dst = ix.AppendTopK(dst[:0], sc, q, k, -1)
	}
	for i := range 200 {
		dst = ix.AppendTopKSelf(dst[:0], sc, (i*7919)%len(left), k)
	}
	rows := float64(sc.rowsScored) / 400
	t.Logf("per top-k: %.0f rows scored, %.0f posting entries read, |L| = %d", rows, float64(sc.postingsRead)/400, len(left))
	if limit := 0.15 * float64(len(left)); rows > limit {
		t.Fatalf("mean rows scored %.0f > %.0f (15%% of |L|)", rows, limit)
	}
}
