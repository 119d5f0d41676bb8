package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// real blocking pipeline and the id rows learning scores on, plus the
// one-function-at-a-time callbacks over string Profiles that the
// function-major baseline scores through.
func buildPrepareInput(left, right []string, space []config.JoinFunction, steps int, selfJoin bool) (*engineInput, func(fi, r, ci int) float64, func(fi, l, ci int) float64) {
	opt := Options{BlockingBeta: 1.0}
	var lrCand, llCand [][]int32
	if selfJoin {
		llCand = blockCandidates(left, nil, opt, false).llCand
		lrCand = llCand
		right = nil
	} else {
		b := blockCandidates(left, right, opt, false)
		lrCand, llCand = b.lrCand, b.llCand
	}
	corpus := config.NewCorpus(space, left, right)
	profL := corpus.Profiles(left, 0)
	profR := corpus.Profiles(right, 0)
	if selfJoin {
		profR = profL
	}
	in := &engineInput{
		space:    space,
		steps:    steps,
		nL:       len(left),
		nR:       len(profR),
		lrCand:   lrCand,
		llCand:   llCand,
		selfJoin: selfJoin,
	}
	bind, _ := idPairs(space, 0, left, right)
	in.newEval = bind(lrCand, llCand)
	lrDist := func(fi, r, ci int) float64 {
		return space[fi].Distance(profL[lrCand[r][ci]], profR[r])
	}
	llDist := func(fi, l, ci int) float64 {
		return space[fi].Distance(profL[l], profL[llCand[l][ci]])
	}
	return in, lrDist, llDist
}

// TestPreparePairMajorMatchesFunctionMajor: the pair-major fused prepare
// over learn-time id rows must be bit-identical to the function-major
// reference over string Profiles — bestL/bestD, threshold grids, ball
// counts, profit totals, and joinable ordering — for every function of
// the full space, at every parallelism level, in both join and self-join
// modes.
func TestPreparePairMajorMatchesFunctionMajor(t *testing.T) {
	left, right := prepareTables(80, 60, 3)
	for _, mode := range []struct {
		name     string
		selfJoin bool
		space    []config.JoinFunction
	}{
		{"join/full140", false, config.Space()},
		{"join/extended148", false, config.ExtendedSpace()},
		{"selfjoin/reduced24", true, config.ReducedSpace()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			in, lrDist, llDist := buildPrepareInput(left, right, mode.space, 20, mode.selfJoin)
			want := functionMajorPrepare(in, lrDist, llDist, 1)
			for _, p := range []int{1, 4, 8} {
				got := prepare(in, p)
				if len(got) != len(want) {
					t.Fatalf("p=%d: %d fns, want %d", p, len(got), len(want))
				}
				for fi := range want {
					if !reflect.DeepEqual(got[fi], want[fi]) {
						t.Fatalf("p=%d: fn %d (%s) differs:\npair-major %+v\nfn-major   %+v",
							p, fi, mode.space[fi].Name(), got[fi], want[fi])
					}
				}
			}
		})
	}
}

// benchPrepareInput is shared by the BenchmarkPrepare* pair so fused and
// function-major runs see the identical workload.
func benchPrepareInput(b *testing.B) (*engineInput, func(fi, r, ci int) float64, func(fi, l, ci int) float64) {
	b.Helper()
	left, right := prepareTables(400, 300, 11)
	return buildPrepareInput(left, right, config.Space(), DefaultThresholdSteps, false)
}

// BenchmarkPrepareFused measures the pair-major fused-kernel prepare on
// the full 140-function space.
func BenchmarkPrepareFused(b *testing.B) {
	in, _, _ := benchPrepareInput(b)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("full140/p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prepare(in, p)
			}
		})
	}
}

// BenchmarkPrepareFunctionMajor measures the pre-refactor function-major
// baseline on the identical workload; the fused/function-major ratio at
// equal parallelism is the fused prepare's speedup. The end-to-end learn
// time is recorded by the `learn` workload of bench/.
func BenchmarkPrepareFunctionMajor(b *testing.B) {
	in, lrDist, llDist := benchPrepareInput(b)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("full140/p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				functionMajorPrepare(in, lrDist, llDist, p)
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
	bind, _ := idPairs(space, 1, left, right)
	newEval := bind(b.lrCand, b.llCand)
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
