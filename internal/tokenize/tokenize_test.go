package tokenize

import (
	"testing"
	"testing/quick"
)

func TestSpaceTokens(t *testing.T) {
	got := Space.Tokens("2008 lsu tigers football team")
	want := []string{"2008", "lsu", "tigers", "football", "team"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSpaceEmpty(t *testing.T) {
	if got := Space.Tokens(""); len(got) != 0 {
		t.Errorf("Space.Tokens(\"\") = %v, want empty", got)
	}
	if got := Space.Tokens("   "); len(got) != 0 {
		t.Errorf("Space.Tokens(spaces) = %v, want empty", got)
	}
}

func TestQGrams3(t *testing.T) {
	got := QGrams("abc", 3)
	want := []string{"##a", "#ab", "abc", "bc#", "c##"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gram %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestQGramsSingleRune(t *testing.T) {
	got := QGrams("x", 3)
	want := []string{"##x", "#x#", "x##"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestQGramsUnicode(t *testing.T) {
	got := QGrams("日本", 3)
	if len(got) != 4 { // n + q - 1 = 2 + 2
		t.Fatalf("got %d grams %v, want 4", len(got), got)
	}
}

func TestQGramsEdgeCases(t *testing.T) {
	if QGrams("", 3) != nil {
		t.Error("QGrams(\"\",3) should be nil")
	}
	if QGrams("ab", 0) != nil {
		t.Error("QGrams with q=0 should be nil")
	}
	got := QGrams("ab", 1)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("QGrams(ab,1) = %v", got)
	}
}

func TestQGramCountProperty(t *testing.T) {
	// For non-empty s of n runes, the number of padded q-grams is n+q-1.
	f := func(s string, qq uint8) bool {
		q := int(qq%4) + 2 // q in 2..5
		grams := QGrams(s, q)
		n := len([]rune(s))
		if n == 0 {
			return grams == nil
		}
		return len(grams) == n+q-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOptionStrings(t *testing.T) {
	if Space.String() != "SP" || QGram3.String() != "3G" {
		t.Error("option names wrong")
	}
	if len(Options()) != 2 {
		t.Error("want 2 tokenization options")
	}
}
