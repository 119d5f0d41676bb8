package distance

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets: every distance must stay within [0,1], never NaN, and keep
// its identity property, for arbitrary byte-soup inputs. Run with
// `go test -fuzz=FuzzAllDistances ./internal/distance` for deep fuzzing;
// the seed corpus runs under plain `go test`.

func FuzzAllDistances(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"a", ""},
		{"2008 lsu tigers football team", "2008 lsu tigers baseball team"},
		{"日本語", "日本"},
		{"\x00\xff", "weird\tbytes"},
		{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "a"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		check := func(name string, d float64) {
			if d < 0 || d > 1 || math.IsNaN(d) {
				t.Fatalf("%s(%q,%q) = %v out of [0,1]", name, a, b, d)
			}
		}
		check("EditDistance", EditDistance(a, b))
		check("JaroWinklerDistance", JaroWinklerDistance(a, b))
		check("MongeElkan", MongeElkan(a, b))
		check("SmithWaterman", SmithWaterman(a, b))
		if d := EditDistance(a, a); d != 0 {
			t.Fatalf("ED identity broken on %q: %v", a, d)
		}
		if d := Levenshtein(a, b); d != Levenshtein(b, a) {
			t.Fatalf("Levenshtein asymmetric on %q/%q", a, b)
		}
	})
}

// FuzzCharBound: CharBound never exceeds the fused kernel's value of any
// member, in either argument order. The seeds cover empty strings,
// ill-formed UTF-8, non-ASCII, strings over 64 runes (the DP paths),
// equal-length anagrams (the length bound is 0), runes that share a
// signature bit ('a' and '!' are 64 apart) and a pair on which both bounds
// are tight.
func FuzzCharBound(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"", "abc"},
		{"\xff\xfe", "\xef\xbf\xbd"},
		{"caf\xc3", "cafe"},
		{"naïve café", "naive cafe"},
		{"日本語", "日本"},
		{strings.Repeat("ab", 40), strings.Repeat("ba", 41)},
		{strings.Repeat("xyz", 30), "xyz"},
		{"listen", "silent"},
		{"dormitory", "dirtyroom"},
		{"aaaa", "!!!!"},
		{"a!a!", "!a!a"},
		{"museum of natural history", "museum of natural histroy"},
		{"abcdx", "abcdy"}, // a four-rune prefix and no transposition: both bounds are tight
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	need := CharNeed{ED: true, JW: true, ME: true, SW: true}
	var cs CharScratch
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, p := range [][2]string{{a, b}, {b, a}} {
			got := cs.Distances(p[0], p[1], need)
			bd := CharBound(ShapeOf(p[0]), ShapeOf(p[1]))
			if bd.ED > got.ED || bd.JW > got.JW || bd.ME > got.ME || bd.SW > got.SW {
				t.Fatalf("CharBound(%q, %q) = %+v exceeds the kernel's %+v", p[0], p[1], bd, got)
			}
		}
	})
}
