package negrule

import (
	"sort"
	"strings"
	"testing"
)

// words is the word set of one record.
func words(record string) []string { return AppendWordSet(nil, record) }

// learn learns rules from L–L record pairs.
func learn(pairs ...[2]string) *Set {
	s := NewSet()
	for _, p := range pairs {
		s.LearnPair(words(p[0]), words(p[1]))
	}
	return s
}

// blocks reports whether s vetoes the (l, r) pair, through a Frozen bound
// to a one-record reference table so both lookup forms run.
func blocks(t *testing.T, s *Set, l, r string) bool {
	t.Helper()
	f := s.Freeze([]string{l}, 1)
	got := f.Blocks(0, words(r))
	if got != f.BlocksPair(words(l), words(r)) {
		t.Fatalf("Blocks and BlocksPair disagree on (%q, %q)", l, r)
	}
	return got
}

func TestLearnsPaperExamples(t *testing.T) {
	s := learn(
		[2]string{"2008 LSU Tigers baseball team", "2008 LSU Tigers football team"},
		[2]string{"2007 Wisconsin Badgers football team", "2008 Wisconsin Badgers football team"},
	)
	if s.Len() != 2 {
		t.Fatalf("learned %d rules, want 2: %v", s.Len(), s.Rules())
	}
	// The learned rules must veto the corresponding L-R false positives.
	if !blocks(t, s, "2007 LSU Tigers football team", "2007 LSU Tigers baseball team") {
		t.Error("football/baseball rule did not block")
	}
	if !blocks(t, s, "2007 Wisconsin Badgers football team", "2008 Wisconsin Badgers football team") {
		t.Error("2007/2008 rule did not block")
	}
	// But must not block pairs that differ differently.
	if blocks(t, s, "2008 LSU Tigers football team", "2008 LSU Tigers football") {
		t.Error("blocked a pair with a one-sided diff")
	}
	if blocks(t, s, "2008 LSU Tigers football team", "2008 LSU Tigers football squad") {
		t.Error("blocked a pair whose diff is not a learned rule")
	}
}

func TestNoRuleWhenDiffLargerThanOne(t *testing.T) {
	s := learn([2]string{"alpha beta gamma", "alpha delta epsilon"})
	if s.Len() != 0 {
		t.Errorf("learned %v from a 2-word diff", s.Rules())
	}
}

func TestNoRuleFromIdenticalWordSets(t *testing.T) {
	s := learn([2]string{"alpha beta", "beta alpha"})
	if s.Len() != 0 {
		t.Errorf("learned %v from identical word sets", s.Rules())
	}
}

func TestRuleIsUnordered(t *testing.T) {
	s := learn([2]string{"x football", "x baseball"})
	if !blocks(t, s, "y baseball", "y football") {
		t.Error("rule should apply in both directions")
	}
}

func TestPreprocessingAppliesStemmingAndPunct(t *testing.T) {
	// "Teams" stems to "team" on both sides; diff is football vs baseball.
	s := learn([2]string{"LSU Football Teams!", "LSU Baseball Teams"})
	if s.Len() != 1 {
		t.Fatalf("learned %d rules, want 1: %v", s.Len(), s.Rules())
	}
	if !blocks(t, s, "lsu football team", "lsu baseball team") {
		t.Error("stemmed rule did not block stemmed variant")
	}
}

func TestEmptySetBlocksNothing(t *testing.T) {
	if blocks(t, NewSet(), "a b", "a c") {
		t.Error("empty set blocked a pair")
	}
}

func TestNewRuleCanonical(t *testing.T) {
	if NewRule("b", "a") != (Rule{A: "a", B: "b"}) {
		t.Error("NewRule not canonical")
	}
}

func TestRulesSortedAndAdd(t *testing.T) {
	s := NewSet()
	s.Add("zulu", "alpha")
	s.Add("mike", "bravo")
	s.Add("alpha", "bravo")
	rules := s.Rules()
	if len(rules) != 3 {
		t.Fatalf("len = %d", len(rules))
	}
	for i := 1; i < len(rules); i++ {
		prev, cur := rules[i-1], rules[i]
		if prev.A > cur.A || (prev.A == cur.A && prev.B > cur.B) {
			t.Fatalf("rules not sorted: %v", rules)
		}
	}
	if !blocks(t, s, "x zulu", "x alpha") {
		t.Error("Added rule does not block")
	}
}

// symDiff is the reference for oneWordDiff: the two one-sided word-set
// differences W(a)\W(b) and W(b)\W(a) of sorted distinct word slices.
func symDiff(a, b []string) (onlyA, onlyB []string) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			onlyA = append(onlyA, a[i])
			i++
		default:
			onlyB = append(onlyB, b[j])
			j++
		}
	}
	onlyA = append(onlyA, a[i:]...)
	onlyB = append(onlyB, b[j:]...)
	return onlyA, onlyB
}

func TestSymDiff(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"b", "c", "d", "e"}
	d1, d2 := symDiff(a, b)
	if len(d1) != 1 || d1[0] != "a" {
		t.Errorf("d1 = %v", d1)
	}
	if len(d2) != 2 || d2[0] != "d" || d2[1] != "e" {
		t.Errorf("d2 = %v", d2)
	}
}

// sortedSet splits s on spaces into a sorted distinct word set.
func sortedSet(s string) []string {
	w := strings.Fields(s)
	sort.Strings(w)
	out := w[:0]
	for i, x := range w {
		if i == 0 || w[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// FuzzOneWordDiff checks the allocation-free scan against the symDiff
// reference on sorted, distinct word sets.
func FuzzOneWordDiff(f *testing.F) {
	for _, seed := range [][2]string{
		{"a b c", "b c d e"},
		{"2008 lsu tiger baseball team", "2008 lsu tiger football team"},
		{"x", "y"},
		{"x", ""},
		{"", ""},
		{"a b", "a b"},
		{"a b z", "a c z"},
		{"a c", "b c d"},
		{"m", "a m z"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		a, b := sortedSet(x), sortedSet(y)
		onlyA, onlyB, ok := oneWordDiff(a, b)
		d1, d2 := symDiff(a, b)
		want := len(d1) == 1 && len(d2) == 1
		if ok != want {
			t.Fatalf("oneWordDiff(%q, %q) ok = %v, reference diff %q / %q", a, b, ok, d1, d2)
		}
		if ok && (onlyA != d1[0] || onlyB != d2[0]) {
			t.Fatalf("oneWordDiff(%q, %q) = %q, %q; reference %q, %q", a, b, onlyA, onlyB, d1[0], d2[0])
		}
	})
}
