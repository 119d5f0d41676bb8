package distance

import (
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// This file holds the fused character-family kernel. The char-based
// distances (ED, JW and the extension distances ME, SW) all start from
// the same pre-processed strings, so evaluating them together shares the
// rune conversion, and a per-worker CharScratch keeps the DP rows and
// match tables of the quadratic algorithms out of the allocator. Results
// are bit-identical to the single-function entry points in strings.go
// and hybrid.go — same arithmetic in the same order, only the buffers
// are reused (enforced by TestCharKernelMatchesSingles / FuzzCharKernel).
//
// Levenshtein and Jaro additionally run bit-parallel when one side (the
// shorter side after the affix trim for Levenshtein, the second string
// for Jaro) is an ASCII string of at most 64 runes, which covers nearly
// every record pair of a join: one machine word holds a DP column, so
// the quadratic loop becomes one pass over the other string. Both forms
// return exactly the DP's integers — Myers' algorithm in Hyyrö's
// global-distance form computes the same edit distance, and taking the
// lowest set bit of the free, in-window positions of a rune is Jaro's
// first-free-match rule — and any other pair falls back to the DP.

// CharNeed selects which members of the character family to compute.
type CharNeed struct{ ED, JW, ME, SW bool }

// CharDists holds the computed members; unrequested members are 0.
type CharDists struct{ ED, JW, ME, SW float64 }

// CharScratch is the reusable per-worker state of the character kernel.
// It is not safe for concurrent use; give each worker its own.
type CharScratch struct {
	ra, rb         []rune // rune views of the two inputs
	dpA, dpB       []int  // DP rows for Levenshtein and Smith-Waterman
	matchA, matchB []bool // Jaro match tables
	ta, tb         []rune // token rune views for Monge-Elkan's inner Jaro
	// fa, fb hold Monge-Elkan's token substrings only within one
	// Distances call; mongeElkan clears them before returning so a
	// long-lived scratch never pins query memory.
	fa, fb []string
	// peq holds the bit-parallel pattern masks of an ASCII pattern of at
	// most 64 runes: bit j of peq[c] is set when pattern[j] == c. It is
	// all zero between calls — every kernel that fills it clears the
	// entries it set before returning.
	peq [utf8.RuneSelf]uint64
}

// appendFields appends the whitespace-separated fields of s to dst.
// Each field is a substring sharing s's backing memory — the
// allocation-free strings.Fields of the kernel.
//
//autofj:hotpath
func appendFields(dst []string, s string) []string {
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

// appendRunes is the allocation-free []rune(s) of the kernel.
//
//autofj:hotpath
func appendRunes(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// intRow returns buf grown to n entries, all zero.
//
//autofj:hotpath
func intRow(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// boolRow returns buf grown to n entries, all false.
//
//autofj:hotpath
func boolRow(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// Distances evaluates the requested character-family distances of one
// pair, converting each string to runes exactly once.
//
//autofj:hotpath
func (cs *CharScratch) Distances(a, b string, need CharNeed) CharDists {
	cs.ra = appendRunes(cs.ra[:0], a)
	cs.rb = appendRunes(cs.rb[:0], b)
	var d CharDists
	if need.ED {
		d.ED = cs.editDistance(cs.ra, cs.rb)
	}
	if need.JW {
		d.JW = 1 - cs.jaroWinkler(cs.ra, cs.rb)
	}
	if need.ME {
		d.ME = cs.mongeElkan(a, b)
	}
	if need.SW {
		d.SW = cs.smithWaterman(cs.ra, cs.rb)
	}
	return d
}

// Shape is what CharBound reads of a string: its rune count, as the kernel
// counts runes (ill-formed UTF-8 as U+FFFD), and bit r&63 set per rune r.
type Shape struct {
	Len int
	Sig uint64
}

// ShapeOf returns the Shape of s.
//
//autofj:hotpath
func ShapeOf(s string) Shape {
	var sh Shape
	for _, r := range s {
		sh.Len++
		sh.Sig |= 1 << (uint32(r) & 63)
	}
	return sh
}

// CharBound returns a lower bound on each member Distances computes for
// strings of shapes a and b; ME, SW and a pair with an empty string get 0.
// A signature bit only a has marks a rune b lacks, so with pa = popcount(a
// &^ b) and pb = popcount(b &^ a), ED needs max(|la−lb|, pa, pb) edits (the
// kernel divides at least that by the same max(la, lb), so the bound is
// exact), and Jaro matches at most m = min(la−pa, lb−pb) runes, so JW is
// at least (1 − 4·prefix scale)·(1 − (m/la + m/lb + 1)/3), less a margin
// for rounding.
//
//autofj:hotpath
func CharBound(a, b Shape) CharDists {
	if a.Len == 0 || b.Len == 0 {
		return CharDists{}
	}
	pa := bits.OnesCount64(a.Sig &^ b.Sig)
	pb := bits.OnesCount64(b.Sig &^ a.Sig)
	m := max(0, min(a.Len-pa, b.Len-pb))
	jmax := (float64(m)/float64(a.Len) + float64(m)/float64(b.Len) + 1) / 3
	return CharDists{
		ED: float64(max(a.Len-b.Len, b.Len-a.Len, pa, pb)) / float64(max(a.Len, b.Len)),
		JW: float64((1-4*jaroWinklerPrefixScale)*(1-jmax)) - 1e-9,
	}
}

// editDistance is EditDistance over pre-converted runes.
//
//autofj:hotpath
func (cs *CharScratch) editDistance(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 0
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return float64(cs.levenshtein(ra, rb)) / float64(maxLen)
}

// levenshtein is Levenshtein over pre-converted runes with scratch rows.
//
//autofj:hotpath
func (cs *CharScratch) levenshtein(ra, rb []rune) int {
	// Shared ends contribute no edits — Lev(p+a+s, p+b+s) == Lev(a, b) —
	// so trim the common prefix and suffix before the quadratic DP. The
	// returned count is exactly the full-string distance (callers
	// normalize by the ORIGINAL lengths), and blocked candidate pairs
	// share long affixes, so this cuts most of the DP area.
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(rb) <= 64 && cs.loadPeq(rb) {
		d := cs.myers(ra, len(rb))
		cs.clearPeq(rb)
		return d
	}
	prev := intRow(cs.dpA, len(rb)+1)
	cur := intRow(cs.dpB, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		ca := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	cs.dpA, cs.dpB = prev, cur
	return prev[len(rb)]
}

// loadPeq fills the pattern masks of p, which has at most 64 runes. It
// reports false, leaving peq untouched, when p holds a non-ASCII rune.
//
//autofj:hotpath
func (cs *CharScratch) loadPeq(p []rune) bool {
	for _, c := range p {
		if uint32(c) >= utf8.RuneSelf {
			return false
		}
	}
	for j, c := range p {
		cs.peq[c] |= 1 << uint(j)
	}
	return true
}

// clearPeq zeroes the masks loadPeq set for p.
//
//autofj:hotpath
func (cs *CharScratch) clearPeq(p []rune) {
	for _, c := range p {
		cs.peq[c] = 0
	}
}

// eq returns the loaded pattern's match mask for text rune c; a rune
// outside ASCII matches no position of an ASCII pattern.
//
//autofj:hotpath
func (cs *CharScratch) eq(c rune) uint64 {
	if uint32(c) < utf8.RuneSelf {
		return cs.peq[c]
	}
	return 0
}

// myers returns the edit distance between text and the m-rune pattern
// loaded into peq (1 <= m <= 64): Myers' bit-vector algorithm in Hyyrö's
// form for the global distance. Bit i of pv/mv marks a +1/-1 vertical
// delta between DP rows i and i+1 of the current column; ph/mh are the
// horizontal deltas, and shifting a 1 into ph is the first DP row's
// D[0][j] = j. score tracks D[m][j] down the text, ending at exactly the
// DP's D[m][n]. Bits above the pattern only ever move upward (carries and
// left shifts), so they never disturb the tracked ones.
//
//autofj:hotpath
func (cs *CharScratch) myers(text []rune, m int) int {
	last := uint64(1) << uint(m-1)
	pv, mv := ^uint64(0), uint64(0)
	score := m
	for _, c := range text {
		eq := cs.eq(c)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// jaroScore is the Jaro similarity from its match and transposition
// counts.
//
//autofj:hotpath
func jaroScore(matches, transpositions, la, lb int) float64 {
	if matches == 0 {
		return 0
	}
	m := float64(matches)
	t := float64(float64(transpositions) / 2)
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroBits counts Jaro's matches and transpositions with rb's masks
// loaded into peq (rb has at most 64 runes, so every position of rb is a
// bit). Rune ra[i] matches the lowest set bit of its positions in rb that
// are still free and inside [i-window, i+window] — exactly the first free
// match the DP's ascending scan takes. Matched runes of ra are recorded in
// order (there are at most len(rb) of them), and the transpositions pair
// the k-th of them with the k-th matched position of rb, ascending, as the
// DP does.
//
//autofj:hotpath
func (cs *CharScratch) jaroBits(ra, rb []rune, window int) (matches, transpositions int) {
	lb := len(rb)
	var matchedB uint64
	var am [64]rune
	for i, c := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		if lo >= lb {
			break // every later window starts past rb as well
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		win := (^uint64(0) << uint(lo)) & (^uint64(0) >> uint(64-hi))
		if cand := cs.eq(c) &^ matchedB & win; cand != 0 {
			matchedB |= cand & -cand
			am[matches] = c
			matches++
		}
	}
	for k, b := 0, matchedB; b != 0; k, b = k+1, b&(b-1) {
		if am[k] != rb[bits.TrailingZeros64(b)] {
			transpositions++
		}
	}
	return matches, transpositions
}

// jaro is Jaro over pre-converted runes with scratch match tables.
//
//autofj:hotpath
func (cs *CharScratch) jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	if lb <= 64 && cs.loadPeq(rb) {
		matches, transpositions := cs.jaroBits(ra, rb, window)
		cs.clearPeq(rb)
		return jaroScore(matches, transpositions, la, lb)
	}
	matchA := boolRow(cs.matchA, la)
	matchB := boolRow(cs.matchB, lb)
	cs.matchA, cs.matchB = matchA, matchB
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroWinkler is JaroWinkler over pre-converted runes.
//
//autofj:hotpath
func (cs *CharScratch) jaroWinkler(ra, rb []rune) float64 {
	j := cs.jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(float64(prefix)*jaroWinklerPrefixScale*(1-j))
}

// mongeElkan is MongeElkan with the inner Jaro-Winkler running on
// scratch buffers. Token splitting reuses the fa/fb scratch — fully
// allocation-free after warmup, like the quadratic inner comparisons.
// The token substrings share the inputs' memory, so both slices are
// cleared before returning: a retained scratch must never pin a query.
//
//autofj:hotpath
func (cs *CharScratch) mongeElkan(a, b string) float64 {
	cs.fa = appendFields(cs.fa[:0], a)
	cs.fb = appendFields(cs.fb[:0], b)
	var d float64
	switch {
	case len(cs.fa) == 0 && len(cs.fb) == 0:
		d = 0
	case len(cs.fa) == 0 || len(cs.fb) == 0:
		d = 1
	default:
		d = 1 - float64((cs.mongeElkanDir(cs.fa, cs.fb)+cs.mongeElkanDir(cs.fb, cs.fa))/2)
	}
	clear(cs.fa[:cap(cs.fa)])
	clear(cs.fb[:cap(cs.fb)])
	cs.fa, cs.fb = cs.fa[:0], cs.fb[:0]
	return d
}

//autofj:hotpath
func (cs *CharScratch) mongeElkanDir(from, to []string) float64 {
	var sum float64
	for _, a := range from {
		cs.ta = appendRunes(cs.ta[:0], a)
		best := 0.0
		for _, b := range to {
			cs.tb = appendRunes(cs.tb[:0], b)
			if s := cs.jaroWinkler(cs.ta, cs.tb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(from))
}

// smithWaterman is SmithWaterman over pre-converted runes with scratch
// DP rows.
//
//autofj:hotpath
func (cs *CharScratch) smithWaterman(ra, rb []rune) float64 {
	if len(ra) == 0 && len(rb) == 0 {
		return 0
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 1
	}
	prev := intRow(cs.dpA, len(rb)+1)
	cur := intRow(cs.dpB, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			score := swMismatch
			if ra[i-1] == rb[j-1] {
				score = swMatch
			}
			v := prev[j-1] + score
			if d := prev[j] + swGap; d > v {
				v = d
			}
			if d := cur[j-1] + swGap; d > v {
				v = d
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	cs.dpA, cs.dpB = prev, cur
	minLen := len(ra)
	if len(rb) < minLen {
		minLen = len(rb)
	}
	maxScore := swMatch * minLen
	if maxScore == 0 {
		return 1
	}
	d := 1 - float64(best)/float64(maxScore)
	return clamp01(d)
}
