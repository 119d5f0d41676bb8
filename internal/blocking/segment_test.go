package blocking

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestTableIndexMatchesSeed drives a TableIndex through every mutation
// (driveTableIndex) and after each step checks every query and every
// self-query against the seed oracle rebuilt over the live keys in dense
// order.
func TestTableIndexMatchesSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			queries := append(tieHeavyRecords(rng, 30),
				"", "   ", "zzz unknown grams only", "Alpha  BRAVO charlie")
			tx := NewTableIndex()
			sc := NewTableScratch()
			keys := func(n int) []string { return tieHeavyRecords(rng, n) }
			driveTableIndex(t, tx, rng, keys, queries, func(stage string, live, queries []string) {
				o := newSeedIndex(live)
				for _, k := range []int{1, 4, 13, len(live) + 1} {
					for _, q := range queries {
						want := o.topK(grams(q), k, -1)
						got := tx.AppendTopK(nil, sc, q, k)
						if !candidateListsEqual(got, want) {
							t.Fatalf("%s: k=%d query=%q:\n got %v\nwant %v", stage, k, q, got, want)
						}
					}
					for d, key := range live {
						want := o.topK(grams(key), k, d)
						got := tx.AppendTopKSelf(nil, sc, d, k)
						if !candidateListsEqual(got, want) {
							t.Fatalf("%s: k=%d self=%d %q:\n got %v\nwant %v", stage, k, d, key, got, want)
						}
					}
				}
			})
		})
	}
}

// FuzzTableTopK runs driveTableIndex over keys that mix tie-heavy records
// with the fuzzed lines of extra, and after each step checks query and
// self top-k at random k against the seed oracle over the live keys, and
// that every call leaves the scratch idle (checkScratchIdle). With an
// empty extra, seeds 1-3 are the cases of TestTableIndexMatchesSeed.
func FuzzTableTopK(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seed, "")
	}
	f.Add(int64(4), "Alpha  BRAVO charlie\nzz\n\n   \nkilo lima mike 3\nÜber straße\nalpha\tbravo")
	f.Fuzz(func(t *testing.T, seed int64, extra string) {
		var lines []string
		if extra != "" {
			lines = strings.Split(extra, "\n")
		}
		if len(lines) > 64 {
			return // keep each input fast
		}
		for _, l := range lines {
			if len(l) > 64 {
				return
			}
		}
		rng := rand.New(rand.NewSource(seed))
		krng := rand.New(rand.NewSource(seed + 1)) // top-k sizes, apart from the driver's draws
		next := 0
		keys := func(n int) []string {
			out := tieHeavyRecords(rng, n)
			for i := range out {
				if len(lines) > 0 && rng.Intn(2) == 0 {
					out[i] = lines[next%len(lines)]
					next++
				}
			}
			return out
		}
		queries := append(tieHeavyRecords(rng, 30),
			"", "   ", "zzz unknown grams only", "Alpha  BRAVO charlie")
		queries = append(queries, lines...)
		tx := NewTableIndex()
		sc := NewTableScratch()
		// Each step asks a random sample of the queries and self-queries,
		// which keeps an input fast enough for coverage-guided fuzzing.
		const sample = 24
		driveTableIndex(t, tx, rng, keys, queries, func(stage string, live, queries []string) {
			o := newSeedIndex(live)
			for range sample {
				q := queries[krng.Intn(len(queries))]
				k := krng.Intn(len(live) + 2)
				want := o.topK(grams(q), k, -1)
				got := tx.AppendTopK(nil, sc, q, k)
				if !candidateListsEqual(got, want) {
					t.Fatalf("%s: k=%d query=%q:\n got %v\nwant %v", stage, k, q, got, want)
				}
				checkScratchIdle(t, tx, sc, fmt.Sprintf("%s: query %q", stage, q))
			}
			for i := 0; i < sample && len(live) > 0; i++ {
				d := krng.Intn(len(live))
				key := live[d]
				k := krng.Intn(len(live) + 2)
				want := o.topK(grams(key), k, d)
				got := tx.AppendTopKSelf(nil, sc, d, k)
				if !candidateListsEqual(got, want) {
					t.Fatalf("%s: k=%d self=%d %q:\n got %v\nwant %v", stage, k, d, key, got, want)
				}
				checkScratchIdle(t, tx, sc, fmt.Sprintf("%s: self %d", stage, d))
			}
		})
	})
}

// checkScratchIdle checks the invariants a top-k call leaves in sc for
// the next: every query weight table is all +0.0 (a row sums its whole
// gram list against them), and the row stamps cover every dense id.
func checkScratchIdle(t *testing.T, tx *TableIndex, sc *TableScratch, what string) {
	t.Helper()
	zero := func(table string, ws []float64) {
		t.Helper()
		for i, w := range ws {
			if math.Float64bits(w) != 0 {
				t.Fatalf("%s: left %s[%d] = %v", what, table, i, w)
			}
		}
	}
	zero("gramW", sc.gramW)
	for si, ws := range sc.segW {
		zero(fmt.Sprintf("segW[%d]", si), ws)
	}
	if len(sc.rowStamp) < tx.Len() {
		t.Fatalf("%s: %d row stamps for %d live rows", what, len(sc.rowStamp), tx.Len())
	}
}

// driveTableIndex drives tx, empty, through every mutation — a segment
// attached with dead rows, a fully-live segment, delta rows, removals with
// renumbering, and delta compaction — and calls check after each step
// with the live keys in dense order and the queries to ask: the given
// ones plus every key added as a delta row. keys(n) supplies n keys; rng
// picks liveness and removals.
func driveTableIndex(t *testing.T, tx *TableIndex, rng *rand.Rand, keys func(n int) []string, queries []string, check func(stage string, live, queries []string)) {
	t.Helper()
	// stored mirrors the index's storage order (segments in attach order,
	// then delta slots); dense ids number its live rows.
	type row struct {
		key   string
		alive bool
	}
	var stored []row
	live := func() []string {
		var out []string
		for _, r := range stored {
			if r.alive {
				out = append(out, r.key)
			}
		}
		return out
	}
	step := func(stage string) {
		t.Helper()
		lv := live()
		if tx.Len() != len(lv) {
			t.Fatalf("%s: index has %d live rows, model %d", stage, tx.Len(), len(lv))
		}
		check(stage, lv, queries)
	}
	step("empty")

	// A segment whose first row is live but which holds tombstones: its
	// local ids are not an offset of its dense ids.
	seg := keys(60)
	alive := make([]bool, len(seg))
	for i := range alive {
		alive[i] = i == 0 || rng.Intn(5) != 0
	}
	alive[len(seg)/2] = false
	tx.AttachSegment(BuildSegment(seg, 1), alive, true)
	for i, key := range seg {
		stored = append(stored, row{key, alive[i]})
	}
	step("segment with dead rows")

	// A fully-live segment after it: dense ids start past zero.
	seg = keys(40)
	tx.AttachSegment(BuildSegment(seg, 1), allAlive(len(seg)), true)
	for _, key := range seg {
		stored = append(stored, row{key, true})
	}
	step("fully-live segment")

	// Delta rows, including new grams and an exact duplicate.
	added := append(keys(20), "quebec romeo sierra", seg[0])
	for _, key := range added {
		if d := tx.AddDelta(key); d != len(live()) {
			t.Fatalf("AddDelta returned dense id %d, want %d", d, len(live()))
		}
		stored = append(stored, row{key, true})
		queries = append(queries, key)
	}
	step("delta")

	// Remove a batch against the old numbering, then renumber once: the
	// fully-live segment gains tombstones, the delta loses rows, and the
	// new-gram row takes its grams' df to zero.
	n := tx.Len()
	remove := map[int]bool{len(live()) - 2: true}
	for len(remove) < 12 {
		remove[rng.Intn(n)] = true
	}
	d := 0
	for i := range stored {
		if !stored[i].alive {
			continue
		}
		if remove[d] {
			tx.RemoveDense(d)
			stored[i].alive = false
		}
		d++
	}
	tx.Renumber()
	step("remove and renumber")

	// Seal part of the delta into a segment built from those slots' keys;
	// dead slots stay dead.
	m := tx.DeltaRows() - 5
	first := len(stored) - tx.DeltaRows()
	sealed := make([]string, m)
	for i := range sealed {
		sealed[i] = stored[first+i].key
	}
	tx.CompactDelta(m, BuildSegment(sealed, 1))
	step("compact delta")

	for _, key := range keys(8) {
		tx.AddDelta(key)
		stored = append(stored, row{key, true})
	}
	step("delta after compaction")
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}
