package distance

import (
	"math/rand"
	"sort"
	"testing"
)

// toIDVec converts a Sparse to its interned form under vocab (a sorted
// distinct token list, ids = lex ranks) — the same mapping a serving
// table's config.Vocab applies. Out-of-vocabulary tokens are dropped from the merge
// list but still counted in Sum/Norm/N and flagged in Extra, exactly as
// documented on IDVec.
func toIDVec(s Sparse, vocab []string) IDVec {
	v := IDVec{Sum: s.Sum, Norm: s.Norm, N: int32(len(s.Tokens))}
	for i, tok := range s.Tokens {
		id := sort.SearchStrings(vocab, tok)
		if id < len(vocab) && vocab[id] == tok {
			v.IDs = append(v.IDs, int32(id))
			v.W = append(v.W, s.W[i])
		} else {
			v.Extra = true
		}
	}
	return v
}

// TestSetFamilyIDsMatchesStrings: the id-space kernel must be
// bit-identical to the string kernel on random pairs. The reference side
// is always fully in-vocabulary (the serving-path precondition); the
// query side mixes in out-of-vocabulary tokens, which must break the
// containment gate exactly as an unmatched string token would.
func TestSetFamilyIDsMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	oov := []string{"zz-novel", "qq-novel", "xx-novel"}
	for trial := 0; trial < 2000; trial++ {
		l := randSparse(rng)
		r := randSparse(rng)
		if rng.Intn(2) == 0 {
			// Graft out-of-vocabulary tokens onto the query side.
			vec := make(map[string]float64, len(r.Tokens)+2)
			for i, tok := range r.Tokens {
				vec[tok] = r.W[i]
			}
			for n := 1 + rng.Intn(2); n > 0; n-- {
				vec[oov[rng.Intn(len(oov))]] = rng.Float64() * 3
			}
			r = NewSparse(vec)
		}
		// The reference side's own tokens ARE the vocabulary: every l
		// token interns, and any r token outside l's set is Extra.
		vocab := append([]string(nil), l.Tokens...)
		lv, rv := toIDVec(l, vocab), toIDVec(r, vocab)
		if lv.Extra {
			t.Fatalf("trial %d: reference side out of its own vocabulary", trial)
		}
		got, want := SetFamilyIDs(lv, rv), SetFamily(l, r)
		if got != want {
			t.Fatalf("trial %d: ids %+v != strings %+v (l=%v r=%v)",
				trial, got, want, l.Tokens, r.Tokens)
		}
	}
}

// TestSetFamilyIDsEmpty pins the empty-set short circuits: both empty is
// all-zero, one empty is the all-ones distance row of the string kernel.
func TestSetFamilyIDsEmpty(t *testing.T) {
	full := toIDVec(NewSparse(map[string]float64{"a": 1}), []string{"a"})
	if d := SetFamilyIDs(IDVec{}, IDVec{}); d != (SetDists{}) {
		t.Errorf("both empty: %+v, want zero row", d)
	}
	want := SetFamily(NewSparse(map[string]float64{"a": 1}), NewSparse(nil))
	if d := SetFamilyIDs(full, IDVec{}); d != want {
		t.Errorf("empty query: ids %+v != strings %+v", d, want)
	}
	want = SetFamily(NewSparse(nil), NewSparse(map[string]float64{"a": 1}))
	if d := SetFamilyIDs(IDVec{}, full); d != want {
		t.Errorf("empty reference: ids %+v != strings %+v", d, want)
	}
}
