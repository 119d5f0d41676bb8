// Package negrule implements negative-rule learning (Algorithm 2 of the
// Auto-FuzzyJoin paper, §3.3).
//
// If two records of the reference table L differ by exactly one word on
// each side — e.g. "2008 LSU Tigers football team" vs "2008 LSU Tigers
// baseball team" — then, because L has few or no duplicates, the differing
// word pair ("football", "baseball") must distinguish different entities.
// Such a pair becomes a negative rule; any candidate (l, r) join pair whose
// word sets differ by exactly that pair is vetoed.
package negrule

import (
	"sort"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// Rule is an unordered pair of words known to separate distinct entities.
type Rule struct {
	A, B string // A < B lexicographically
}

// NewRule builds the canonical (sorted) rule for a word pair.
func NewRule(a, b string) Rule {
	if a > b {
		a, b = b, a
	}
	return Rule{A: a, B: b}
}

// Set is a learned collection of negative rules. Records enter it as word
// sets (AppendWordSet); vetoes go through a Frozen view of it.
type Set struct {
	rules map[Rule]bool
}

// NewSet returns an empty rule set.
func NewSet() *Set {
	return &Set{rules: make(map[Rule]bool)}
}

// Len returns the number of learned rules.
func (s *Set) Len() int { return len(s.rules) }

// Add inserts an already-learned rule verbatim (words must be in the
// post-processing form produced by learning, e.g. stemmed lower-case).
// Used when deserializing saved programs.
func (s *Set) Add(a, b string) { s.rules[NewRule(a, b)] = true }

// Rules returns the learned rules in sorted order (for display/tests).
func (s *Set) Rules() []Rule {
	out := make([]Rule, 0, len(s.rules))
	for r := range s.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// LearnPair inspects one L–L record pair, given as word sets from
// AppendWordSet, and records a negative rule when the two sets differ by
// exactly one word each (Definition 3.1).
func (s *Set) LearnPair(w1, w2 []string) {
	if a, b, ok := oneWordDiff(w1, w2); ok {
		s.rules[NewRule(a, b)] = true
	}
}

// oneWordDiff reports whether the word sets a and b, each sorted and
// free of repeats, differ by exactly one word on each side, returning
// those words: onlyA is the one word of a missing from b, onlyB the one
// word of b missing from a. It is the scan of Definition 3.1 that both
// learning a rule and vetoing a pair run, and it stops at the second word
// found on either side. Two such sets that differ by one word each share
// all others, so they are the same size, and sets of different sizes are
// refused before the scan. Allocation-free.
//
//autofj:hotpath
func oneWordDiff(a, b []string) (onlyA, onlyB string, ok bool) {
	if len(a) != len(b) {
		return "", "", false
	}
	nA, nB := 0, 0
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		switch {
		case a[ai] == b[bi]:
			ai++
			bi++
		case a[ai] < b[bi]:
			onlyA = a[ai]
			ai++
			if nA++; nA > 1 {
				return "", "", false
			}
		default:
			onlyB = b[bi]
			bi++
			if nB++; nB > 1 {
				return "", "", false
			}
		}
	}
	if ai < len(a) {
		nA += len(a) - ai
		onlyA = a[len(a)-1]
	}
	if bi < len(b) {
		nB += len(b) - bi
		onlyB = b[len(b)-1]
	}
	if nA != 1 || nB != 1 {
		return "", "", false
	}
	return onlyA, onlyB, true
}

// AppendWordSet appends the sorted distinct word set of record under the
// Algorithm-2 pre-processing (lower-casing, stemming, punctuation removal)
// to dst and returns it. dst should be empty (typically a reused buffer
// sliced to length zero).
//
//autofj:hotpath
func AppendWordSet(dst []string, record string) []string {
	//autofj:alloc-ok the pre-processing transform allocates once per record at add/freeze time and the word set is cached thereafter
	return AppendWords(dst, textproc.LowerStemRemovePunct.Apply(record))
}

// AppendWords appends the AppendWordSet word set of a record to dst from
// proc, the record under textproc.LowerStemRemovePunct.
//
//autofj:hotpath
func AppendWords(dst []string, proc string) []string {
	dst = tokenize.AppendWords(dst, proc)
	sort.Strings(dst)
	out := dst[:0]
	for i, f := range dst {
		if i == 0 || dst[i-1] != f {
			out = append(out, f)
		}
	}
	return out
}

// Frozen is an immutable, goroutine-safe view of a rule set, optionally
// bound to a fixed reference table whose word sets are precomputed once;
// query-side word sets are supplied by the caller (via AppendWordSet),
// and lookups share no mutable state.
type Frozen struct {
	rules     map[Rule]bool
	leftWords [][]string
}

// Freeze snapshots the rule set against a reference table (WordSets of
// left, across up to parallelism goroutines; 0 means GOMAXPROCS). left
// may be nil when every lookup supplies both word sets via BlocksPair.
// The returned Frozen is independent of later Set mutations.
func (s *Set) Freeze(left []string, parallelism int) *Frozen {
	f := &Frozen{
		rules:     make(map[Rule]bool, len(s.rules)),
		leftWords: WordSets(left, parallelism),
	}
	//autofj:nondet-ok map-to-map copy; the frozen set is identical under any iteration order
	for r := range s.rules {
		f.rules[r] = true
	}
	return f
}

// WordSets computes the AppendWordSet word set of every record, across up
// to parallelism goroutines (0 means GOMAXPROCS).
func WordSets(records []string, parallelism int) [][]string {
	out := make([][]string, len(records))
	parallel.Shard(len(records), parallel.Workers(parallelism, len(records)), func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = AppendWordSet(nil, records[i])
		}
	})
	return out
}

// FreezeRules builds a Frozen view of learned rule word pairs without
// binding it to a reference table: callers supply BOTH word sets per lookup
// via BlocksPair. Mutable reference tables use this form, precomputing each
// record's word set alongside the record itself so rows can come and go.
func FreezeRules(rules [][2]string) *Frozen {
	f := &Frozen{rules: make(map[Rule]bool, len(rules))}
	for _, pair := range rules {
		f.rules[NewRule(pair[0], pair[1])] = true
	}
	return f
}

// Len returns the number of frozen rules.
func (f *Frozen) Len() int { return len(f.rules) }

// Blocks reports whether the pair (reference record i, query with word set
// qwords) is vetoed. qwords must come from AppendWordSet. Allocation-free
// and safe for concurrent use.
func (f *Frozen) Blocks(i int, qwords []string) bool {
	return f.BlocksPair(f.leftWords[i], qwords)
}

// BlocksPair reports whether a (reference, query) pair with the given word
// sets is vetoed: the sets differ by exactly one word on each side and that
// word pair is a learned rule. Both slices must come from AppendWordSet.
// Allocation-free and safe for concurrent use.
//
//autofj:hotpath
func (f *Frozen) BlocksPair(lwords, qwords []string) bool {
	if len(f.rules) == 0 {
		return false
	}
	a, b, ok := oneWordDiff(lwords, qwords)
	return ok && f.rules[NewRule(a, b)]
}
