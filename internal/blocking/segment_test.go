package blocking

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTableIndexMatchesSeed drives a TableIndex through every mutation —
// a segment attached with dead rows, a fully-live segment, delta rows,
// removals with renumbering, and delta compaction — and after each step
// checks every query and every self-query against the seed oracle rebuilt
// over the live keys in dense order.
func TestTableIndexMatchesSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// stored mirrors the index's storage order (segments in attach
			// order, then delta slots); dense ids number its live rows.
			type row struct {
				key   string
				alive bool
			}
			var stored []row
			live := func() []string {
				var keys []string
				for _, r := range stored {
					if r.alive {
						keys = append(keys, r.key)
					}
				}
				return keys
			}
			queries := append(tieHeavyRecords(rng, 30),
				"", "   ", "zzz unknown grams only", "Alpha  BRAVO charlie")
			tx := NewTableIndex()
			sc := NewTableScratch()
			check := func(stage string) {
				t.Helper()
				keys := live()
				if tx.Len() != len(keys) {
					t.Fatalf("%s: index has %d live rows, model %d", stage, tx.Len(), len(keys))
				}
				o := newSeedIndex(keys)
				for _, k := range []int{1, 4, 13, len(keys) + 1} {
					for _, q := range queries {
						want := o.topK(grams(q), k, -1)
						got := tx.AppendTopK(nil, sc, q, k)
						if !candidateListsEqual(got, want) {
							t.Fatalf("%s: k=%d query=%q:\n got %v\nwant %v", stage, k, q, got, want)
						}
					}
					for d, key := range keys {
						want := o.topK(grams(key), k, d)
						got := tx.AppendTopKSelf(nil, sc, d, k)
						if !candidateListsEqual(got, want) {
							t.Fatalf("%s: k=%d self=%d %q:\n got %v\nwant %v", stage, k, d, key, got, want)
						}
					}
				}
			}
			check("empty")

			// A segment whose first row is live but which holds tombstones:
			// its local ids are not an offset of its dense ids.
			keys := tieHeavyRecords(rng, 60)
			alive := make([]bool, len(keys))
			for i := range alive {
				alive[i] = i == 0 || rng.Intn(5) != 0
			}
			alive[len(keys)/2] = false
			tx.AttachSegment(BuildSegment(keys, 1), alive, true)
			for i, key := range keys {
				stored = append(stored, row{key, alive[i]})
			}
			check("segment with dead rows")

			// A fully-live segment after it: dense ids start past zero.
			keys = tieHeavyRecords(rng, 40)
			tx.AttachSegment(BuildSegment(keys, 1), allAlive(len(keys)), true)
			for _, key := range keys {
				stored = append(stored, row{key, true})
			}
			check("fully-live segment")

			// Delta rows, including new grams and an exact duplicate.
			added := append(tieHeavyRecords(rng, 20), "quebec romeo sierra", keys[0])
			for _, key := range added {
				if d := tx.AddDelta(key); d != len(live()) {
					t.Fatalf("AddDelta returned dense id %d, want %d", d, len(live()))
				}
				stored = append(stored, row{key, true})
				queries = append(queries, key)
			}
			check("delta")

			// Remove a batch against the old numbering, then renumber once:
			// the fully-live segment gains tombstones, the delta loses rows,
			// and the new-gram row takes its grams' df to zero.
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
			check("remove and renumber")

			// Seal part of the delta into a segment built from those slots'
			// keys; dead slots stay dead.
			m := tx.DeltaRows() - 5
			first := len(stored) - tx.DeltaRows()
			sealed := make([]string, m)
			for i := range sealed {
				sealed[i] = stored[first+i].key
			}
			tx.CompactDelta(m, BuildSegment(sealed, 1))
			check("compact delta")

			for _, key := range tieHeavyRecords(rng, 8) {
				tx.AddDelta(key)
				stored = append(stored, row{key, true})
			}
			check("delta after compaction")
		})
	}
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}
