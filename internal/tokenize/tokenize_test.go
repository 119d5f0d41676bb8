package tokenize

import (
	"slices"
	"sort"
	"strings"
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

// FuzzPackedGrams: the packed keys of s unpack to QGrams(s, 3) in order,
// every gram packs back to its key, and ascending keys order the grams
// as sort.Strings does. AppendWords splits as strings.Fields.
func FuzzPackedGrams(f *testing.F) {
	for _, s := range []string{"", "a", "#", "ß#x", "日本語", "\xff\xfe a", "a b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		grams := QGrams(s, 3)
		keys := AppendGramKeys(nil, s)
		if len(keys) != len(grams) {
			t.Fatalf("%q: %d keys, %d grams", s, len(keys), len(grams))
		}
		for i, k := range keys {
			if g := GramString(k); g != grams[i] {
				t.Fatalf("%q: key %d unpacks to %q, want %q", s, i, g, grams[i])
			}
			if back, ok := GramKey(grams[i]); !ok || back != k {
				t.Fatalf("%q: GramKey(%q) = %x, %v; want %x", s, grams[i], back, ok, k)
			}
		}
		slices.Sort(keys)
		sort.Strings(grams)
		for i, k := range keys {
			if GramString(k) != grams[i] {
				t.Fatalf("%q: sorted key %d is %q, sorted gram %q", s, i, GramString(k), grams[i])
			}
		}
		if got, want := AppendWords(nil, s), strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("AppendWords(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestGramKeyRejects(t *testing.T) {
	for _, g := range []string{"", "ab", "abcd", "a\xffb", "\xed\xa0\x80"} {
		if _, ok := GramKey(g); ok {
			t.Errorf("GramKey(%q) accepted a string that is not three runes", g)
		}
	}
	if k, ok := GramKey("a\uFFFDb"); !ok || GramString(k) != "a\uFFFDb" {
		t.Errorf("GramKey rejects or mangles an encoded U+FFFD")
	}
}
