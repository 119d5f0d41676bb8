// Package stem implements the classic Porter stemming algorithm
// (M.F. Porter, "An algorithm for suffix stripping", 1980).
//
// It is used by the pre-processing pipeline (the "S" option of Figure 2 in
// the Auto-FuzzyJoin paper) and by the negative-rule learner, which stems
// words before diffing reference records.
package stem

// stems reports whether word can differ from its Porter stem: it is more
// than two lower-case ASCII letters. Any other word is its own stem.
func stems(word []byte) bool {
	if len(word) <= 2 {
		return false
	}
	for _, c := range word {
		if c < 'a' || c > 'z' {
			return false
		}
	}
	return true
}

// AppendStem appends the Porter stem of word to dst and returns the
// extended slice. A stem is never longer than its word.
func AppendStem(dst, word []byte) []byte {
	n := len(dst)
	dst = append(dst, word...)
	if !stems(word) {
		return dst
	}
	b := dst[n:]
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	return append(dst[:n], b...)
}

// isConsonant reports whether b[i] is a consonant in Porter's sense:
// letters other than a,e,i,o,u; 'y' is a consonant when it follows a vowel
// position boundary (i.e. when preceded by a vowel it is a consonant... the
// precise rule: y is a consonant if preceded by a vowel, a vowel if preceded
// by a consonant or at the start it is a consonant).
func isConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(b, i-1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[:end].
func measure(b []byte, end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && isConsonant(b, i) {
		i++
	}
	for {
		// skip vowels
		for i < end && !isConsonant(b, i) {
			i++
		}
		if i >= end {
			return m
		}
		// skip consonants
		for i < end && isConsonant(b, i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

// hasVowel reports whether b[:end] contains a vowel.
func hasVowel(b []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isConsonant(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b ends with a double consonant.
func endsDoubleConsonant(b []byte) bool {
	n := len(b)
	if n < 2 || b[n-1] != b[n-2] {
		return false
	}
	return isConsonant(b, n-1)
}

// endsCVC reports whether b[:end] ends consonant-vowel-consonant, where the
// final consonant is not w, x, or y.
func endsCVC(b []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isConsonant(b, end-3) || isConsonant(b, end-2) || !isConsonant(b, end-1) {
		return false
	}
	switch b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	return string(b[len(b)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the measure of the stem
// (before the suffix) is > minM. Returns the new slice and whether a
// replacement happened.
func replaceSuffix(b []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(b, s) {
		return b, false
	}
	stemEnd := len(b) - len(s)
	if measure(b, stemEnd) <= minM {
		return b, true // suffix matched but condition failed: stop trying others
	}
	return append(b[:stemEnd], r...), true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2]
	case hasSuffix(b, "ies"):
		return b[:len(b)-2]
	case hasSuffix(b, "ss"):
		return b
	case hasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b, len(b)-3) > 0 {
			return b[:len(b)-1]
		}
		return b
	}
	var stem []byte
	switch {
	case hasSuffix(b, "ed") && hasVowel(b, len(b)-2):
		stem = b[:len(b)-2]
	case hasSuffix(b, "ing") && hasVowel(b, len(b)-3):
		stem = b[:len(b)-3]
	default:
		return b
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem, len(stem)) == 1 && endsCVC(stem, len(stem)):
		return append(stem, 'e')
	}
	return stem
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && hasVowel(b, len(b)-1) {
		b[len(b)-1] = 'i'
	}
	return b
}

var step2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(b []byte) []byte {
	for _, r := range step2Rules {
		if nb, ok := replaceSuffix(b, r.from, r.to, 0); ok {
			return nb
		}
	}
	return b
}

var step3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(b []byte) []byte {
	for _, r := range step3Rules {
		if nb, ok := replaceSuffix(b, r.from, r.to, 0); ok {
			return nb
		}
	}
	return b
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(b []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(b, s) {
			continue
		}
		stemEnd := len(b) - len(s)
		if s == "ion" {
			continue // handled below
		}
		if measure(b, stemEnd) > 1 {
			return b[:stemEnd]
		}
		return b
	}
	if hasSuffix(b, "ion") {
		stemEnd := len(b) - 3
		if stemEnd > 0 && (b[stemEnd-1] == 's' || b[stemEnd-1] == 't') && measure(b, stemEnd) > 1 {
			return b[:stemEnd]
		}
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stemEnd := len(b) - 1
	m := measure(b, stemEnd)
	if m > 1 || (m == 1 && !endsCVC(b, stemEnd)) {
		return b[:stemEnd]
	}
	return b
}

func step5b(b []byte) []byte {
	if hasSuffix(b, "ll") && measure(b, len(b)) > 1 {
		return b[:len(b)-1]
	}
	return b
}
