package blocking

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// normalize lower-cases and collapses whitespace: the string blocking
// grams, made the way the index made it before packed keys.
func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// grams returns the distinct padded 3-grams of the normalized record,
// sorted: the string oracle of a row's gram list.
func grams(s string) []string {
	gs := tokenize.QGrams(normalize(s), 3)
	seen := make(map[string]bool, len(gs))
	out := gs[:0]
	for _, g := range gs {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}

// oracleSegment builds a segment's parts from grams(): the sorted union
// of the rows' grams as the vocabulary, each row's grams as ids into it,
// and each gram's rows ascending.
func oracleSegment(keys []string) (vocab []string, postings, docGrams [][]int32) {
	rows := make([][]string, len(keys))
	for i, key := range keys {
		rows[i] = grams(key)
		vocab = append(vocab, rows[i]...)
	}
	sort.Strings(vocab)
	vocab = slices.Compact(vocab)
	postings = make([][]int32, len(vocab))
	docGrams = make([][]int32, len(keys))
	for i, gs := range rows {
		docGrams[i] = make([]int32, len(gs))
		for k, g := range gs {
			id, _ := slices.BinarySearch(vocab, g)
			docGrams[i][k] = int32(id)
			postings[id] = append(postings[id], int32(i))
		}
	}
	return vocab, postings, docGrams
}

// gramKeyCases are blocking keys at the edges of packed grams: the '#'
// padding rune inside a key, non-ASCII and case-changing runes, ill-formed
// UTF-8, and keys with no gram at all.
var gramKeyCases = []string{
	"", " ", "\t \n", "#", "##", "a#b", "#x# ##y", "İstanbul", "STRASSE ẞ",
	"café au lait", "日本語 テスト", "bad \xff\xfe utf8\xc3", "\xe2\x82",
	"� literal", "Ω ω", "a", "ab", "  Padded   Key  ", "x\u0085y z",
}

func intListsEqual(a, b [][]int32) bool {
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
}

// TestPackedSegmentMatchesGrams holds BuildSegment's vocabulary, gram
// lists and postings, built from packed keys, to the grams() oracle, and
// AddDelta's gram lists to the oracle's grams through the table
// dictionary, on the ledger's reference table and on the edge cases.
func TestPackedSegmentMatchesGrams(t *testing.T) {
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 10})
	ledger := task.LeftKey()
	for _, tc := range []struct {
		name string
		keys []string
	}{
		{"ledger", ledger},
		{"edges", gramKeyCases},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vocab, postings, docGrams := oracleSegment(tc.keys)
			for _, par := range []int{1, 3} {
				gv, gp, gd := BuildSegment(tc.keys, par).Parts()
				if !slices.Equal(gv, vocab) {
					t.Fatalf("parallelism %d: vocabulary differs from the oracle's (%d vs %d grams)", par, len(gv), len(vocab))
				}
				if !intListsEqual(gd, docGrams) {
					t.Fatalf("parallelism %d: gram lists differ from the oracle's", par)
				}
				if !intListsEqual(gp, postings) {
					t.Fatalf("parallelism %d: postings differ from the oracle's", par)
				}
			}
			tx := NewTableIndex()
			for i, key := range tc.keys {
				tx.AddDelta(key)
				want := grams(key)
				got := tx.delta[i].grams
				if len(got) != len(want) {
					t.Fatalf("delta row %q: %d grams, want %d", key, len(got), len(want))
				}
				for k, g := range want {
					if got[k] != tx.gramID[g] {
						t.Fatalf("delta row %q: gram %d is id %d, want %q (id %d)", key, k, got[k], g, tx.gramID[g])
					}
				}
			}
		})
	}
}
