package distance

import (
	"math/rand"
	"strings"
	"testing"
)

// randSparse builds a random weighted token set from a small shared
// vocabulary so that overlaps, containments, and empty sets all occur.
func randSparse(rng *rand.Rand) Sparse {
	vocab := []string{"alpha", "bravo", "carol", "delta", "echo", "fox", "golf", "##a", "a##", "bra"}
	n := rng.Intn(len(vocab) + 1)
	vec := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		w := rng.Float64() * 3
		if rng.Intn(8) == 0 {
			w = 0 // dropped by NewSparse
		}
		vec[vocab[rng.Intn(len(vocab))]] = w
	}
	return NewSparse(vec)
}

// TestSetFamilyMatchesSingles: the fused set kernel must be bit-identical
// to the single-function entry points on random pairs, including empty
// and fully-contained sets.
func TestSetFamilyMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		l, r := randSparse(rng), randSparse(rng)
		got := SetFamily(l, r)
		checks := []struct {
			name string
			got  float64
			want float64
		}{
			{"JD", got.JD, Jaccard(l, r)},
			{"CD", got.CD, Cosine(l, r)},
			{"DD", got.DD, Dice(l, r)},
			{"MD", got.MD, MaxInclusion(l, r)},
			{"ID", got.ID, Inclusion(l, r)},
			{"CJD", got.CJD, ContainJaccard(l, r)},
			{"CCD", got.CCD, ContainCosine(l, r)},
			{"CDD", got.CDD, ContainDice(l, r)},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("trial %d %s: fused %v != single %v (l=%v r=%v)",
					trial, c.name, c.got, c.want, l.Tokens, r.Tokens)
			}
		}
	}
}

// TestSetFamilyContainment pins the directional gate: r ⊆ l passes the
// Contain-* gate, l ⊆ r (strictly) does not.
func TestSetFamilyContainment(t *testing.T) {
	l := NewSparse(map[string]float64{"a": 1, "b": 1, "c": 1})
	r := NewSparse(map[string]float64{"a": 1, "b": 1})
	if d := SetFamily(l, r); d.CJD == 1 || d.CJD != Jaccard(l, r) {
		t.Errorf("contained pair gated out: CJD=%v", d.CJD)
	}
	if d := SetFamily(r, l); d.CJD != 1 || d.CCD != 1 || d.CDD != 1 {
		t.Errorf("non-contained pair not gated: %+v", SetFamily(r, l))
	}
}

var charCorpus = []string{
	"", " ", "a", "ab", "ba", "abc", "north museum of history",
	"nothern museum of history", "the north museum", "müller straße",
	"MIXED case Input", "a b c d e f", "xxxxxxxxxxxxxxxxxxxxxxxx",
	"2003 alpha squad unit", "2003 alpha squad unit x",
}

// charBoundaryPairs are the edges of the bit-parallel Levenshtein/Jaro
// fast path: 63/64/65-rune ASCII strings (the one-word limit), a single
// non-ASCII rune on either side (the fallback switch), pairs that become
// empty or fit in a word only after the common-affix trim, and Jaro
// match windows of width 0 (longer side <= 3 runes) and 1 (4-5 runes).
func charBoundaryPairs() [][2]string {
	s63 := strings.Repeat("abcdefghi", 7)
	s64 := s63 + "j"
	s65 := s64 + "k"
	rev64 := []rune(s64)
	for i, j := 0, len(rev64)-1; i < j; i, j = i+1, j-1 {
		rev64[i], rev64[j] = rev64[j], rev64[i]
	}
	long := strings.Repeat("the quick brown fox ", 5) // 100 runes
	pairs := [][2]string{
		{s63, s63}, {s63, s64}, {s64, s63}, {s64, s65}, {s65, s64}, {s63, s65},
		{s64, string(rev64)}, {s65, string(rev64)},
		{s64, strings.Repeat("a", 64)}, {strings.Repeat("a", 65), strings.Repeat("a", 64)},
		{s64, "x" + s64[1:]}, {s64, s64[:32] + "X" + s64[33:]}, {s64, s64[:63] + "Z"},
		{s65, "y" + s65[1:64] + "z"},
		// One non-ASCII rune on either side, inside and past the word.
		{s64, "é" + s64[1:]}, {"é" + s64[1:], s64}, {s63 + "é", s64}, {s64, s63 + "é"},
		{"café au lait", "cafe au lait"}, {"cafe au lait", "café au lait"},
		{"naïve", "naive"}, {"naive", "naïve"}, {"日", "a"}, {"a", "日"},
		// Long pairs the trim reduces to nothing or to one word.
		{long, long}, {long + "abc", long}, {long, "abc" + long},
		{long[:50] + "alpha" + long[50:], long[:50] + "beta" + long[50:]},
		{long[:30] + strings.Repeat("q", 70) + long[30:], long},
		{long[:30] + strings.Repeat("q", 70) + long[30:], long[:30] + strings.Repeat("r", 66) + long[30:]},
		// Jaro window widths 0 and 1.
		{"ab", "ba"}, {"abc", "cab"}, {"abc", "bca"}, {"a", "ab"}, {"ab", "a"},
		{"abcd", "badc"}, {"abcde", "edcba"}, {"abcd", "dcba"}, {"aaaa", "aa"},
		{"abcde", "abced"}, {"ab", "abcde"},
	}
	return pairs
}

// checkCharPair asserts that the kernel agrees with the independent
// single-function implementations on one pair, through every entry point,
// and that the scratch's pattern masks are left all zero.
func checkCharPair(t *testing.T, cs *CharScratch, a, b string) {
	t.Helper()
	need := CharNeed{ED: true, JW: true, ME: true, SW: true}
	got := cs.Distances(a, b, need)
	if want := EditDistance(a, b); got.ED != want {
		t.Fatalf("ED(%q,%q): fused %v != single %v", a, b, got.ED, want)
	}
	if want := JaroWinklerDistance(a, b); got.JW != want {
		t.Fatalf("JW(%q,%q): fused %v != single %v", a, b, got.JW, want)
	}
	if want := MongeElkan(a, b); got.ME != want {
		t.Fatalf("ME(%q,%q): fused %v != single %v", a, b, got.ME, want)
	}
	if want := SmithWaterman(a, b); got.SW != want {
		t.Fatalf("SW(%q,%q): fused %v != single %v", a, b, got.SW, want)
	}
	assertPeqClear(t, cs, a, b)
	ra, rb := []rune(a), []rune(b)
	if got, want := cs.levenshtein(ra, rb), Levenshtein(a, b); got != want {
		t.Fatalf("levenshtein(%q,%q) = %d, want %d", a, b, got, want)
	}
	assertPeqClear(t, cs, a, b)
	if got, want := cs.jaro(ra, rb), Jaro(a, b); got != want {
		t.Fatalf("jaro(%q,%q) = %v, want %v", a, b, got, want)
	}
	assertPeqClear(t, cs, a, b)
}

func assertPeqClear(t *testing.T, cs *CharScratch, a, b string) {
	t.Helper()
	for c, m := range cs.peq {
		if m != 0 {
			t.Fatalf("after (%q,%q): peq[%q] = %#x, want 0", a, b, rune(c), m)
		}
	}
}

// TestCharKernelMatchesSingles: the scratch-backed character kernel must
// be bit-identical to the single-function entry points over a corpus
// crossing empty strings, unicode, and token reorderings, plus the
// boundary table of the bit-parallel fast path — and stay identical when
// the scratch is reused across pairs in sequence.
func TestCharKernelMatchesSingles(t *testing.T) {
	var cs CharScratch
	for _, a := range charCorpus {
		for _, b := range charCorpus {
			checkCharPair(t, &cs, a, b)
		}
	}
	for _, p := range charBoundaryPairs() {
		checkCharPair(t, &cs, p[0], p[1])
	}
}

// TestCharKernelRandomASCII sweeps random pairs over a three-letter
// alphabet (dense matches, many transpositions) at lengths around the
// 64-rune word, with an occasional non-ASCII rune, against the
// independent implementations.
func TestCharKernelRandomASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() string {
		n := rng.Intn(72)
		r := make([]rune, n)
		for i := range r {
			r[i] = rune('a' + rng.Intn(3))
			if rng.Intn(100) == 0 {
				r[i] = 'ü'
			}
		}
		return string(r)
	}
	var cs CharScratch
	for trial := 0; trial < 3000; trial++ {
		a := gen()
		b := a
		if rng.Intn(2) == 0 {
			b = gen()
		} else if len(b) > 0 {
			// A near-copy: one substitution somewhere in the middle.
			i := rng.Intn(len(b))
			b = b[:i] + "c" + b[i+1:]
		}
		checkCharPair(t, &cs, a, b)
	}
}

// TestCharKernelPartialNeed: unrequested members stay zero and requested
// ones are unaffected by the selection.
func TestCharKernelPartialNeed(t *testing.T) {
	var cs CharScratch
	got := cs.Distances("abc", "abd", CharNeed{ED: true})
	if got.ED != EditDistance("abc", "abd") {
		t.Errorf("ED under partial need = %v", got.ED)
	}
	if got.JW != 0 || got.ME != 0 || got.SW != 0 {
		t.Errorf("unrequested members non-zero: %+v", got)
	}
}

// FuzzCharKernel cross-checks the fused kernel against the single
// functions on arbitrary byte strings.
func FuzzCharKernel(f *testing.F) {
	f.Add("north museum", "nothern museum")
	f.Add("", "x")
	f.Add("αβγ", "αγβ")
	for _, p := range charBoundaryPairs() {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var cs CharScratch
		checkCharPair(t, &cs, a, b)
	})
}

// FuzzSetFamily cross-checks the fused set kernel against the single
// functions on token sets derived from arbitrary strings.
func FuzzSetFamily(f *testing.F) {
	f.Add("a b c", "b c d")
	f.Add("", "a")
	f.Fuzz(func(t *testing.T, a, b string) {
		l := sparseOf(a)
		r := sparseOf(b)
		got := SetFamily(l, r)
		if got.JD != Jaccard(l, r) || got.CD != Cosine(l, r) || got.DD != Dice(l, r) ||
			got.MD != MaxInclusion(l, r) || got.ID != Inclusion(l, r) ||
			got.CJD != ContainJaccard(l, r) || got.CCD != ContainCosine(l, r) ||
			got.CDD != ContainDice(l, r) {
			t.Fatalf("set kernel mismatch on (%q, %q): %+v", a, b, got)
		}
	})
}

// sparseOf builds a deterministic weighted set from a string's bytes.
func sparseOf(s string) Sparse {
	vec := map[string]float64{}
	for i := 0; i+2 <= len(s); i += 2 {
		vec[s[i:i+2]] += 0.25 + float64(s[i]%7)
	}
	return NewSparse(vec)
}
