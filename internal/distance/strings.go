// Package distance implements the distance functions of the Auto-FuzzyJoin
// configuration space (Figure 2 / Table 1): the character-based Edit
// distance (ED) and Jaro-Winkler (JW); the set-based Jaccard (JD),
// Cosine (CD), Dice (DD), Max-inclusion (MD) and Inclusion (ID) distances
// over weighted token sets; the three hybrid Contain-{Jaccard,Cosine,Dice}
// distances; and cosine distance over dense embeddings (GED).
//
// All distances are normalized to [0, 1] so that thresholds are comparable
// across records, with 0 meaning identical and 1 maximally different.
package distance

// Levenshtein returns the edit distance between a and b, computed over
// runes with unit insert/delete/substitute costs, in O(len(a)*len(b)) time
// and O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
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
	return prev[len(rb)]
}

// EditDistance returns the length-normalized Levenshtein distance
// lev(a,b) / max(|a|,|b|) in [0,1]. Two empty strings have distance 0.
func EditDistance(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 0
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return float64(Levenshtein(a, b)) / float64(maxLen)
}

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
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
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
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
	// Count transpositions between matched characters.
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
	m := float64(matches)
	t := float64(float64(transpositions) / 2)
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroWinklerPrefixScale is the standard Winkler prefix scaling factor.
const jaroWinklerPrefixScale = 0.1

// JaroWinkler returns the Jaro-Winkler similarity of a and b, boosting the
// Jaro score by up to 4 common prefix characters with scale 0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(float64(prefix)*jaroWinklerPrefixScale*(1-j))
}

// JaroWinklerDistance returns 1 - JaroWinkler(a, b).
func JaroWinklerDistance(a, b string) float64 {
	return 1 - JaroWinkler(a, b)
}
