package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// prepareTables builds synthetic reference/query tables with typos,
// token drops, and prefixes so that every kernel family sees non-trivial
// pairs.
func prepareTables(nL, nR int, seed int64) (left, right []string) {
	rng := rand.New(rand.NewSource(seed))
	adjectives := []string{"north", "south", "east", "west", "central", "upper", "lower", "old", "new", "grand"}
	nouns := []string{"museum", "institute", "library", "archive", "gallery", "college", "theatre", "garden", "bridge", "station"}
	for i := 0; i < nL; i++ {
		left = append(left, fmt.Sprintf("%s %s of %s %d",
			adjectives[rng.Intn(len(adjectives))], nouns[rng.Intn(len(nouns))],
			adjectives[rng.Intn(len(adjectives))], 1900+rng.Intn(120)))
	}
	for i := 0; i < nR; i++ {
		base := left[rng.Intn(len(left))]
		switch rng.Intn(4) {
		case 0: // typo: swap two characters
			b := []byte(base)
			p := rng.Intn(len(b) - 1)
			b[p], b[p+1] = b[p+1], b[p]
			right = append(right, string(b))
		case 1: // drop the last token
			right = append(right, base[:len(base)-5])
		case 2: // add a prefix
			right = append(right, "the "+base)
		default:
			right = append(right, base)
		}
	}
	return left, right
}

// buildPrepareInput assembles the engine input for a table pair via the
// real blocking pipeline and the id rows learning scores on.
func buildPrepareInput(left, right []string, space []config.JoinFunction, steps int) *engineInput {
	b := blockCandidates(left, right, Options{BlockingBeta: 1.0}, false)
	return &engineInput{
		space:   space,
		steps:   steps,
		nL:      len(left),
		nR:      len(right),
		lrCand:  b.lrCand,
		llCand:  b.llCand,
		newEval: idPairs(space, config.LearnProfiles(space, 0, left, right), len(left), b.lrCand, b.llCand),
	}
}

// BenchmarkPrepareFused measures the pair-major fused-kernel prepare on
// the full 140-function space. The end-to-end learn time is recorded by
// the `learn` workload of bench/.
func BenchmarkPrepareFused(b *testing.B) {
	left, right := prepareTables(400, 300, 11)
	in := buildPrepareInput(left, right, config.Space(), DefaultThresholdSteps)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("full140/p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prepare(in, p)
			}
		})
	}
}

// TestIDPairsRepreparesOnMaskChange: idPairs keeps the last center it
// prepared, and must prepare it again when the same center is asked for
// under another group mask. For each group g of the space, one evaluator
// scores a center's candidates under g alone and then, back to back,
// under every group; the second call must give the distances of a fresh
// evaluator asked under every group first.
func TestIDPairsRepreparesOnMaskChange(t *testing.T) {
	left, right := prepareTables(40, 30, 7)
	space := config.Space()
	b := blockCandidates(left, right, Options{BlockingBeta: 1.0}, false)
	newEval := idPairs(space, config.LearnProfiles(space, 1, left, right), len(left), b.lrCand, b.llCand)
	ev := config.NewEvaluator(space)
	var groups []config.GroupMask
	for fi := range space {
		if g := ev.Group(fi); !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	narrow, got, want := make([]float64, len(space)), make([]float64, len(space)), make([]float64, len(space))
	checked := 0
	for _, g := range groups {
		for l := 0; l < len(left); l += 9 {
			if len(b.llCand[l]) == 0 {
				continue
			}
			shared, fresh := newEval(), newEval()
			for ci := range b.llCand[l] {
				fresh.ll(l, ci, config.AllGroups, nil, want)
				shared.ll(l, ci, g, nil, narrow)
				shared.ll(l, ci, config.AllGroups, nil, got)
				for fi := range space {
					if math.Float64bits(got[fi]) != math.Float64bits(want[fi]) {
						t.Fatalf("group %b, center %d, candidate %d: %s = %v after a call under one group, %v fresh",
							g, l, ci, space[fi].Name(), got[fi], want[fi])
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no center had a candidate to score")
	}
}
