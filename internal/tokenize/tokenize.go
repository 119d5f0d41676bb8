// Package tokenize implements the tokenization options of the
// Auto-FuzzyJoin configuration space (Figure 2, "Tokenization"):
// space-tokenization (SP) and character 3-grams (3G).
//
// Tokens are multisets in the paper's set-based distances; we return token
// slices with duplicates preserved and let the weighting layer aggregate.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Option identifies a tokenization scheme.
type Option uint8

const (
	// Space splits on whitespace (SP).
	Space Option = iota
	// QGram3 emits padded character 3-grams (3G).
	QGram3
)

// Options returns the tokenization schemes of Table 1, in a stable order.
func Options() []Option { return []Option{QGram3, Space} }

// String returns the paper's abbreviation for the option.
func (o Option) String() string {
	if o == Space {
		return "SP"
	}
	return "3G"
}

// Tokens tokenizes s. For Space it returns whitespace-separated words; for
// QGram3 it returns the padded character 3-grams of s ("#" padding), which is
// the standard q-gram construction used by fuzzy-join blocking and set
// similarity. An empty string yields no tokens.
func (o Option) Tokens(s string) []string {
	if o == Space {
		return strings.Fields(s)
	}
	return QGrams(s, 3)
}

// AppendWords appends the whitespace-separated words of s to dst, as
// strings.Fields splits them; each word is a substring sharing s's
// memory, so splitting itself does not allocate (unlike strings.Fields,
// which builds a fresh slice per call).
//
//autofj:hotpath
func AppendWords(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// QGrams returns the padded character q-grams of s. The string is padded
// with q-1 '#' characters on each side, so a string of n runes yields
// n+q-1 grams. Runes, not bytes, are the gram unit, so multi-byte input is
// handled correctly. Returns nil for an empty string or q < 1.
func QGrams(s string, q int) []string {
	if s == "" || q < 1 {
		return nil
	}
	runes := []rune(s)
	if q == 1 {
		out := make([]string, len(runes))
		for i, r := range runes {
			out[i] = string(r)
		}
		return out
	}
	padded := make([]rune, 0, len(runes)+2*(q-1))
	for i := 0; i < q-1; i++ {
		padded = append(padded, '#')
	}
	padded = append(padded, runes...)
	for i := 0; i < q-1; i++ {
		padded = append(padded, '#')
	}
	out := make([]string, 0, len(padded)-q+1)
	for i := 0; i+q <= len(padded); i++ {
		out = append(out, string(padded[i:i+q]))
	}
	return out
}

// A packed 3-gram is one padded 3-gram of QGrams(s, 3) as a uint64: its
// three runes at 21 bits each, the first rune in the high bits. Every
// padded gram is exactly three runes and UTF-8 byte order is code-point
// order, so ascending keys order the grams exactly as sort.Strings orders
// their strings. Ill-formed UTF-8 decodes to U+FFFD one byte at a time,
// as QGrams's []rune conversion does.
const (
	runeBits = 21
	keyMask  = 1<<(3*runeBits) - 1
	runeMask = 1<<runeBits - 1
)

// AppendGramKeys appends the packed keys of the padded 3-grams of s to
// dst, in QGrams(s, 3) order: the "##"-padded 3-rune window slides over s
// without building a rune slice or a gram string. An empty s appends
// nothing.
func AppendGramKeys(dst []uint64, s string) []uint64 {
	if s == "" {
		return dst
	}
	w := uint64('#')<<runeBits | '#'
	for _, r := range s {
		w = (w<<runeBits | uint64(r)) & keyMask
		dst = append(dst, w)
	}
	for range 2 {
		w = (w<<runeBits | '#') & keyMask
		dst = append(dst, w)
	}
	return dst
}

// GramKey packs a 3-gram string; ok is false unless g is exactly three
// valid runes.
func GramKey(g string) (key uint64, ok bool) {
	n := 0
	for i, r := range g {
		if r == utf8.RuneError && !strings.HasPrefix(g[i:], string(utf8.RuneError)) {
			return 0, false // an ill-formed byte, which no gram string holds
		}
		key = key<<runeBits | uint64(r)
		n++
	}
	return key, n == 3
}

// GramString returns the 3-gram string a packed key stands for.
func GramString(key uint64) string {
	var b [3 * utf8.UTFMax]byte
	return string(AppendGram(b[:0], key))
}

// AppendGram appends the 3-gram a packed key stands for to dst.
func AppendGram(dst []byte, key uint64) []byte {
	dst = utf8.AppendRune(dst, rune(key>>(2*runeBits)))
	dst = utf8.AppendRune(dst, rune(key>>runeBits&runeMask))
	return utf8.AppendRune(dst, rune(key&runeMask))
}
