package baselines

import (
	"sort"
	"strings"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// Excel mimics the Excel Fuzzy Lookup add-in: a carefully weighted static
// combination of multiple distance signals — Jaro-Winkler, IDF-weighted
// token Jaccard, and containment — over lower-cased input (the paper
// describes it as a tuned variant of the generalized fuzzy similarity of
// Chaudhuri et al. [17]). It is the strongest unsupervised baseline in the
// paper and serves that role here.
type Excel struct {
	f *Featurizer
}

// NewExcel builds the scorer's IDF statistics from both tables.
func NewExcel(left, right []string) *Excel {
	return &Excel{f: NewFeaturizer(left, right)}
}

// Score returns the Excel-like similarity of a pair in [0, 1].
func (e *Excel) Score(l, r string) float64 {
	ft := e.f.Features(l, r)
	// Static expert weights: token evidence dominates, character evidence
	// rescues typo-heavy pairs, containment rewards reference prefixes.
	return float64(0.35*ft[4]) + float64(0.25*ft[0]) + float64(0.2*ft[2]) + float64(0.1*ft[5]) + float64(0.1*ft[1])
}

// Joins scores every blocked candidate pair and keeps the best per right
// record.
func (e *Excel) Joins(left, right []string, cands [][]int32) []metrics.ScoredJoin {
	var out []metrics.ScoredJoin
	for r, cs := range cands {
		bestL, bestS := int32(-1), -1.0
		for _, l := range cs {
			if s := e.Score(left[l], right[r]); s > bestS {
				bestS = s
				bestL = l
			}
		}
		if bestL >= 0 {
			out = append(out, metrics.ScoredJoin{Right: r, Left: int(bestL), Score: bestS})
		}
	}
	return out
}

// FuzzyWuzzy reproduces the seatgeek/fuzzywuzzy scoring family: ratio,
// partial ratio, token-sort ratio, and token-set ratio, all built on
// Levenshtein similarity, combined by max (the package's WRatio spirit).
type FuzzyWuzzy struct{}

// ratio is the basic Levenshtein similarity of two strings.
func (FuzzyWuzzy) ratio(a, b string) float64 {
	return 1 - distance.EditDistance(a, b)
}

// partialRatio slides the shorter string across the longer and keeps the
// best window ratio.
func (fw FuzzyWuzzy) partialRatio(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) == 0 {
		if len(rb) == 0 {
			return 1
		}
		return 0
	}
	best := 0.0
	for i := 0; i+len(ra) <= len(rb); i++ {
		if s := fw.ratio(string(ra), string(rb[i:i+len(ra)])); s > best {
			best = s
		}
	}
	if len(ra) == len(rb) {
		return fw.ratio(string(ra), string(rb))
	}
	return best
}

// tokenSortRatio compares the alphabetically re-joined token sequences.
func (fw FuzzyWuzzy) tokenSortRatio(a, b string) float64 {
	return fw.ratio(sortTokens(a), sortTokens(b))
}

// tokenSetRatio compares intersection-anchored token strings, forgiving
// extra tokens on either side.
func (fw FuzzyWuzzy) tokenSetRatio(a, b string) float64 {
	ta, tb := tokenSet(a), tokenSet(b)
	var inter, onlyA, onlyB []string
	for t := range ta {
		if tb[t] {
			inter = append(inter, t)
		} else {
			onlyA = append(onlyA, t)
		}
	}
	for t := range tb {
		if !ta[t] {
			onlyB = append(onlyB, t)
		}
	}
	sort.Strings(inter)
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	base := strings.Join(inter, " ")
	sa := strings.TrimSpace(base + " " + strings.Join(onlyA, " "))
	sb := strings.TrimSpace(base + " " + strings.Join(onlyB, " "))
	best := fw.ratio(base, sa)
	if s := fw.ratio(base, sb); s > best {
		best = s
	}
	if s := fw.ratio(sa, sb); s > best {
		best = s
	}
	return best
}

// Score is the maximum of the four ratios on lower-cased input.
func (fw FuzzyWuzzy) Score(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	best := fw.ratio(a, b)
	if s := fw.partialRatio(a, b); s > best {
		best = s
	}
	if s := fw.tokenSortRatio(a, b); s > best {
		best = s
	}
	if s := fw.tokenSetRatio(a, b); s > best {
		best = s
	}
	return best
}

// Joins scores the blocked candidates and keeps the best per right record.
func (fw FuzzyWuzzy) Joins(left, right []string, cands [][]int32) []metrics.ScoredJoin {
	var out []metrics.ScoredJoin
	for r, cs := range cands {
		bestL, bestS := int32(-1), -1.0
		for _, l := range cs {
			if s := fw.Score(left[l], right[r]); s > bestS {
				bestS = s
				bestL = l
			}
		}
		if bestL >= 0 {
			out = append(out, metrics.ScoredJoin{Right: r, Left: int(bestL), Score: bestS})
		}
	}
	return out
}

func sortTokens(s string) string {
	toks := tokenize.Space.Tokens(s)
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

func tokenSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, t := range tokenize.Space.Tokens(s) {
		m[t] = true
	}
	return m
}
