// Package tokenize implements the tokenization options of the
// Auto-FuzzyJoin configuration space (Figure 2, "Tokenization"):
// space-tokenization (SP) and character 3-grams (3G).
//
// Tokens are multisets in the paper's set-based distances; we return token
// slices with duplicates preserved and let the weighting layer aggregate.
package tokenize

import "strings"

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
