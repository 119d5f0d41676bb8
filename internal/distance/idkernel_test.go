package distance

import (
	"math"
	"math/rand"
	"slices"
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
// by count × sw (idf). Half the runs have every count 1.
func storedRow(rng *rand.Rand, s Sparse, vocab []string) (rowIDs []int32, counts []uint32, sw []float64, eq, idf Sparse) {
	sw = make([]float64, len(vocab))
	for id := range sw {
		sw[id] = 0.25 + rng.Float64()*3
	}
	counts = make([]uint32, len(s.Tokens))
	eqW, idfW := map[string]float64{}, map[string]float64{}
	spread := 1 + 3*rng.Intn(2) // half the runs are all ones
	for k, tok := range s.Tokens {
		counts[k] = 1 + uint32(rng.Intn(spread))
		eqW[tok] = float64(counts[k])
		idfW[tok] = float64(counts[k]) * sw[sort.SearchStrings(vocab, tok)]
	}
	return ids(s, vocab), counts, sw, NewSparse(eqW), NewSparse(idfW)
}

// storedRun is one form a stored run takes: its kind, and the two
// kernels over it.
type storedRun struct {
	kind string
	eq   func(p *Prepared, pL bool) SetDists
	idf  func(p *Prepared, sw []float64, pL bool) SetDists
}

// runs returns every form the run ids, counts is stored in: int32 and
// (when every id fits) uint16 slots, with its counts, and with none when
// they are all 1.
func runs(ids []int32, counts []uint32) []storedRun {
	var out []storedRun
	add := func(kind string, counts []uint32) {
		out = append(out, storedRun{"int32 slots, " + kind,
			func(p *Prepared, pL bool) SetDists { return SetFamilyRun(p, ids, counts, pL) },
			func(p *Prepared, sw []float64, pL bool) SetDists { return SetFamilyIDF(p, ids, counts, sw, pL) }})
		narrow := make([]uint16, len(ids))
		for k, id := range ids {
			if id > math.MaxUint16 {
				return
			}
			narrow[k] = uint16(id)
		}
		out = append(out, storedRun{"uint16 slots, " + kind,
			func(p *Prepared, pL bool) SetDists { return SetFamilyRun(p, narrow, counts, pL) },
			func(p *Prepared, sw []float64, pL bool) SetDists { return SetFamilyIDF(p, narrow, counts, sw, pL) }})
	}
	add("counted", counts)
	if !slices.ContainsFunc(counts, func(c uint32) bool { return c != 1 }) {
		add("all ones", nil)
	}
	return out
}

// TestSetFamilyIDsMatchesStrings: the id-space kernels must be
// bit-identical to the string kernel on random pairs, in both
// orientations. With the stored run as l, the prepared query side r mixes
// in out-of-vocabulary tokens, which must break the containment gate
// exactly as an unmatched string token would; with the prepared side as
// l (a ball's center), both sides are in the vocabulary. The integer
// counts of an equal-weight row and the count × IDF weights of an IDF row
// are each checked, over int32 and uint16 slots, and an all-ones run
// also with no counts stored.
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
		for _, run := range runs(lids, counts) {
			check(trial, "equal-weight row l, prepared query r, "+run.kind, run.eq(q, false), SetFamily(le, r), le, r)
			check(trial, "IDF row l, prepared query r, "+run.kind, run.idf(q, sw, false), SetFamily(li, r), li, r)
		}

		// A prepared center against a stored neighbor, both in vocabulary,
		// in either orientation.
		c, n := randSparse(rng), randSparse(rng)
		vocab = union(c, n)
		nids, counts, sw, ne, ni := storedRow(rng, n, vocab)
		for _, pL := range []bool{true, false} {
			for _, run := range runs(nids, counts) {
				l, r := c, ne
				if !pL {
					l, r = ne, c
				}
				check(trial, "equal-weight row, "+run.kind, run.eq(prepare(c, vocab), pL), SetFamily(l, r), l, r)
				l, r = c, ni
				if !pL {
					l, r = ni, c
				}
				check(trial, "IDF row, "+run.kind, run.idf(prepare(c, vocab), sw, pL), SetFamily(l, r), l, r)
			}
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
		if d := SetFamilyRun[int32](empty, nil, nil, pL); d != (SetDists{}) {
			t.Errorf("both empty: %+v, want zero row", d)
		}
		if d := SetFamilyIDF[uint16](empty, nil, nil, nil, pL); d != (SetDists{}) {
			t.Errorf("both empty, IDF row: %+v, want zero row", d)
		}
		want := SetFamily(a, NewSparse(nil))
		if d := SetFamilyRun[int32](full, nil, nil, pL); d != want {
			t.Errorf("empty run: ids %+v != strings %+v", d, want)
		}
		if d := SetFamilyRun(empty, []int32{0}, []uint32{1}, pL); d != want {
			t.Errorf("empty prepared side: ids %+v != strings %+v", d, want)
		}
		if d := SetFamilyRun(empty, []uint16{0}, nil, pL); d != want {
			t.Errorf("empty prepared side: ids %+v != strings %+v", d, want)
		}
	}
}
