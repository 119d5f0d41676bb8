// Package textproc implements the record pre-processing options of the
// Auto-FuzzyJoin configuration space (Figure 2, "Pre-processing"):
// lower-casing (L), stemming (S), and punctuation removal (RP), and the
// four combinations used in the paper's experiments (Table 1):
// L, L+S, L+RP, L+S+RP.
package textproc

import (
	"bytes"
	"unicode"
	"unicode/utf8"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/stem"
)

// Option identifies one pre-processing pipeline.
type Option uint8

const (
	// Lower applies lower-casing only (L).
	Lower Option = iota
	// LowerStem applies lower-casing then Porter stemming per word (L+S).
	LowerStem
	// LowerRemovePunct lower-cases and strips punctuation (L+RP).
	LowerRemovePunct
	// LowerStemRemovePunct applies all three (L+S+RP).
	LowerStemRemovePunct
	numOptions
)

// Options returns the four pre-processing pipelines of Table 1,
// in a stable order.
func Options() []Option {
	return []Option{Lower, LowerStem, LowerRemovePunct, LowerStemRemovePunct}
}

// String returns the paper's abbreviation for the option.
func (o Option) String() string {
	switch o {
	case Lower:
		return "L"
	case LowerStem:
		return "L+S"
	case LowerRemovePunct:
		return "L+RP"
	case LowerStemRemovePunct:
		return "L+S+RP"
	}
	return "?"
}

// Mask is a set of Options.
type Mask uint8

// Mask returns the set holding o alone.
func (o Option) Mask() Mask { return 1 << o }

// Forms holds a record's processed strings by Option, "" where not made.
type Forms [numOptions]string

// Apply runs the pipeline on s: the one-option case of Process.
func (o Option) Apply(s string) string {
	var f Forms
	Process(&f, s, o.Mask())
	return f[o]
}

// AppendLower appends s under L to dst: each rune lower-cased as
// strings.ToLower maps it (ill-formed UTF-8 becomes U+FFFD), and
// whitespace runs collapsed to single spaces and trimmed.
func AppendLower(dst []byte, s string) []byte {
	n, space := len(dst), false
	for _, r := range s {
		if r = unicode.ToLower(r); unicode.IsSpace(r) {
			space = len(dst) > n
			continue
		}
		if space {
			dst, space = append(dst, ' '), false
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// Process sets f to s processed under every option of want, in one pass
// over the words of L (AppendLower). A string equal to s or to an earlier
// option's is shared, and the rest are cut from one allocation.
func Process(f *Forms, s string, want Mask) {
	if *f = (Forms{}); want == 0 {
		return
	}
	// The options after L are built a space before each word.
	var stack [numOptions + 1][128]byte
	b := [numOptions][]byte{stack[0][:0], stack[1][:0], stack[2][:0], stack[3][:0]}
	b[Lower] = AppendLower(b[Lower], s)
	for rest := b[Lower]; len(rest) > 0 && want&^Lower.Mask() != 0; {
		var word []byte
		word, rest, _ = bytes.Cut(rest, []byte{' '})
		b = appendWord(b, word, want)
	}
	var at [numOptions]int // where each option's string starts in out
	out := stack[numOptions][:0]
	for o := range b {
		if o != int(Lower) && len(b[o]) > 0 {
			b[o] = b[o][1:]
		}
		if at[o] = -1; want&Option(o).Mask() == 0 || string(b[o]) == s {
			continue // not wanted, or s itself
		}
		at[o] = len(out)
		for p := range o {
			if at[p] >= 0 && string(b[p]) == string(b[o]) {
				at[o] = at[p]
				break
			}
		}
		if at[o] == len(out) {
			out = append(out, b[o]...)
		}
	}
	all := string(out)
	for o := range f {
		if at[o] >= 0 {
			f[o] = all[at[o] : at[o]+len(b[o])]
		} else if want&Option(o).Mask() != 0 {
			f[o] = s
		}
	}
}

// appendWord appends a word of L to L+S stemmed, and its pieces between
// punctuation and symbol runes ("O'Brien-Smith" is two) to L+RP and,
// stemmed, to L+S+RP; a word without punctuation is stemmed once for
// both. b[LowerStem] and b[LowerRemovePunct] are scratch when not wanted.
func appendWord(b [numOptions][]byte, word []byte, want Mask) [numOptions][]byte {
	b[LowerStem] = append(b[LowerStem], ' ')
	st := len(b[LowerStem])
	if want&(LowerStem.Mask()|LowerStemRemovePunct.Mask()) != 0 {
		b[LowerStem] = stem.AppendStem(b[LowerStem], word)
	}
	for rest := word; len(rest) > 0 && want&(LowerRemovePunct.Mask()|LowerStemRemovePunct.Mask()) != 0; {
		piece := rest
		if i := bytes.IndexFunc(rest, punct); i >= 0 {
			_, n := utf8.DecodeRune(rest[i:])
			piece, rest = rest[:i], rest[i+n:]
		} else {
			rest = nil
		}
		if len(piece) == 0 {
			continue
		}
		b[LowerRemovePunct] = append(append(b[LowerRemovePunct], ' '), piece...)
		switch srp := append(b[LowerStemRemovePunct], ' '); {
		case want&LowerStemRemovePunct.Mask() == 0:
		case len(piece) == len(word): // no punctuation: the word's stem is made
			b[LowerStemRemovePunct] = append(srp, b[LowerStem][st:]...)
		default:
			b[LowerStemRemovePunct] = stem.AppendStem(srp, piece)
		}
	}
	return b
}

// punct reports whether r is a punctuation or symbol rune.
func punct(r rune) bool { return unicode.IsPunct(r) || unicode.IsSymbol(r) }
