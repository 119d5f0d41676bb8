package distance

import "strings"

// This file holds the extension distances beyond Table 1 — the paper's
// "Extensible" property (§1): new distance functions drop into the
// configuration space transparently. See config.ExtendedSpace.

// MongeElkan returns the symmetric Monge-Elkan distance of two strings:
// tokens are compared with an inner Jaro-Winkler similarity, each token of
// one side is matched to its best counterpart on the other, and the two
// directional means are averaged. It is forgiving to token reorderings and
// per-token typos at the same time.
func MongeElkan(a, b string) float64 {
	ta := strings.Fields(a)
	tb := strings.Fields(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 0
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 1
	}
	return 1 - float64((mongeElkanDir(ta, tb)+mongeElkanDir(tb, ta))/2)
}

func mongeElkanDir(from, to []string) float64 {
	var sum float64
	for _, a := range from {
		best := 0.0
		for _, b := range to {
			if s := JaroWinkler(a, b); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(from))
}

// Smith-Waterman scoring parameters (classic defaults).
const (
	swMatch    = 2
	swMismatch = -1
	swGap      = -1
)

// SmithWaterman returns a normalized local-alignment distance: the maximal
// Smith-Waterman alignment score divided by the best possible score of the
// shorter string (perfect local match gives distance 0). Useful when one
// record embeds the other with noise around it.
func SmithWaterman(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 0
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 1
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
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
