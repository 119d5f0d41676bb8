package distance

import (
	"math/rand"
	"sort"
	"testing"
)

// prepare builds the prepared form of s over vocab (a sorted distinct
// token list, ids = lexical ranks; a vocabulary's slots differ only in
// numbering). Tokens outside vocab are in
// no table but still count toward Sum, Norm and N, as a query's
// out-of-vocabulary tokens do.
func prepare(s Sparse, vocab []string) *Prepared {
	p := &Prepared{W: make([]float64, len(vocab)), Sum: s.Sum, Norm: s.Norm, N: int32(len(s.Tokens))}
	for i, tok := range s.Tokens {
		if id := sort.SearchStrings(vocab, tok); id < len(vocab) && vocab[id] == tok {
			p.W[id] = s.W[i]
		}
	}
	return p
}

// ids returns the ids of s's tokens under vocab, which holds them all.
func ids(s Sparse, vocab []string) []int32 {
	out := make([]int32, len(s.Tokens))
	for i, tok := range s.Tokens {
		out[i] = int32(sort.SearchStrings(vocab, tok))
	}
	return out
}

// union returns the sorted distinct tokens of the sets.
func union(sets ...Sparse) []string {
	var toks []string
	for _, s := range sets {
		toks = append(toks, s.Tokens...)
	}
	sort.Strings(toks)
	n := 0
	for i, tok := range toks {
		if i == 0 || tok != toks[n-1] {
			toks[n] = tok
			n++
		}
	}
	return toks[:n]
}

// storedRow returns the run a stored row holds for the tokens of s, all
// in vocab: their ids, random integer counts and an IDF column sw over
// vocab, with the string sets the row weighs as, by its counts (eq) and
// by count × sw (idf).
func storedRow(rng *rand.Rand, s Sparse, vocab []string) (rowIDs []int32, counts []uint32, sw []float64, eq, idf Sparse) {
	sw = make([]float64, len(vocab))
	for id := range sw {
		sw[id] = 0.25 + rng.Float64()*3
	}
	counts = make([]uint32, len(s.Tokens))
	eqW, idfW := map[string]float64{}, map[string]float64{}
	for k, tok := range s.Tokens {
		counts[k] = 1 + uint32(rng.Intn(4))
		eqW[tok] = float64(counts[k])
		idfW[tok] = float64(counts[k]) * sw[sort.SearchStrings(vocab, tok)]
	}
	return ids(s, vocab), counts, sw, NewSparse(eqW), NewSparse(idfW)
}

// TestSetFamilyIDsMatchesStrings: the id-space kernels must be
// bit-identical to the string kernel on random pairs, in both
// orientations. With the stored run as l, the prepared query side r mixes
// in out-of-vocabulary tokens, which must break the containment gate
// exactly as an unmatched string token would; with the prepared side as
// l (a ball's center), both sides are in the vocabulary. The integer
// counts of an equal-weight row and the count × IDF weights of an IDF row
// are each checked.
func TestSetFamilyIDsMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	oov := []string{"zz-novel", "qq-novel", "xx-novel"}
	check := func(trial int, what string, got, want SetDists, l, r Sparse) {
		t.Helper()
		if got != want {
			t.Fatalf("trial %d, %s: ids %+v != strings %+v (l=%v r=%v)", trial, what, got, want, l.Tokens, r.Tokens)
		}
	}
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
		// The stored side's own tokens ARE the vocabulary: every l token
		// has an id, and any r token outside l's set is out of it.
		vocab := union(l)
		lids, counts, sw, le, li := storedRow(rng, l, vocab)
		q := prepare(r, vocab)
		check(trial, "equal-weight row l, prepared query r", SetFamilyRun(q, lids, counts, le.Sum, le.Norm, false), SetFamily(le, r), le, r)
		check(trial, "IDF row l, prepared query r", q.SetFamilyIDF(lids, counts, sw, false), SetFamily(li, r), li, r)

		// A prepared center against a stored neighbor, both in vocabulary,
		// in either orientation.
		c, n := randSparse(rng), randSparse(rng)
		vocab = union(c, n)
		nids, counts, sw, ne, ni := storedRow(rng, n, vocab)
		for _, pL := range []bool{true, false} {
			l, r := c, ne
			if !pL {
				l, r = ne, c
			}
			check(trial, "equal-weight row", SetFamilyRun(prepare(c, vocab), nids, counts, ne.Sum, ne.Norm, pL), SetFamily(l, r), l, r)
			l, r = c, ni
			if !pL {
				l, r = ni, c
			}
			check(trial, "IDF row", prepare(c, vocab).SetFamilyIDF(nids, counts, sw, pL), SetFamily(l, r), l, r)
		}
	}
}

// TestSetFamilyIDsEmpty pins the empty-set short circuits: both empty is
// all-zero, one empty is the all-ones distance row of the string kernel,
// in either orientation.
func TestSetFamilyIDsEmpty(t *testing.T) {
	a := NewSparse(map[string]float64{"a": 1})
	vocab := []string{"a"}
	full, empty := prepare(a, vocab), prepare(NewSparse(nil), vocab)
	for _, pL := range []bool{true, false} {
		if d := SetFamilyRun(empty, nil, nil, 0, 0, pL); d != (SetDists{}) {
			t.Errorf("both empty: %+v, want zero row", d)
		}
		if d := empty.SetFamilyIDF(nil, nil, nil, pL); d != (SetDists{}) {
			t.Errorf("both empty, IDF row: %+v, want zero row", d)
		}
		want := SetFamily(a, NewSparse(nil))
		if d := SetFamilyRun(full, nil, nil, 0, 0, pL); d != want {
			t.Errorf("empty run: ids %+v != strings %+v", d, want)
		}
		if d := SetFamilyRun(empty, []int32{0}, []uint32{1}, 1, 1, pL); d != want {
			t.Errorf("empty prepared side: ids %+v != strings %+v", d, want)
		}
	}
}
