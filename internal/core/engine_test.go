package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// figure4Input builds the paper's Figure 4 scenario directly against the
// engine: a grid-like reference table where each record's closest
// neighbours sit at a known Jaccard distance w, one query record r1 close
// to l1 (safe join, clean 2d-ball), and one query record r2 whose true
// counterpart is missing (unsafe join, crowded ball).
func figure4Input(t *testing.T) (*engineInput, []string, []string) {
	t.Helper()
	// Reference records: "<year> <team> squad unit" with years 2001..2005
	// and five teams; neighbours differ by exactly one of four tokens, so
	// the local grid width under space-token Jaccard is w = 1 - 3/5 = 0.4.
	var left []string
	teams := []string{"alpha", "bravo", "carol", "delta", "echo"}
	for _, team := range teams {
		for year := 2001; year <= 2005; year++ {
			left = append(left, fmt.Sprintf("%d %s squad unit", year, team))
		}
	}
	right := []string{
		// r1: one extra token from l = "2003 alpha squad unit":
		// d = 1 - 4/5 = 0.2 < w/2 exactly at the safe boundary.
		"2003 alpha squad unit x",
		// r2: its true counterpart "2003 foxtrot squad unit" is missing;
		// closest l differs by two tokens: d = 1 - 3/6 h.
		"2003 foxtrot squad unit y z",
	}
	f := config.JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: config.JD}
	space := []config.JoinFunction{f}
	corpus := config.NewCorpus(space, left, right)
	profL := corpus.Profiles(left, 1)
	profR := corpus.Profiles(right, 1)
	lrCand := make([][]int32, len(right))
	for r := range right {
		ids := make([]int32, len(left))
		for i := range left {
			ids[i] = int32(i)
		}
		lrCand[r] = ids
	}
	llCand := make([][]int32, len(left))
	for l := range left {
		var ids []int32
		for i := range left {
			if i != l {
				ids = append(ids, int32(i))
			}
		}
		llCand[l] = ids
	}
	ev := config.NewEvaluator(space)
	in := &engineInput{
		space:  space,
		steps:  40,
		nL:     len(left),
		nR:     len(right),
		lrCand: lrCand,
		llCand: llCand,
		newEval: func() pairEval {
			sc := ev.NewScratch()
			return pairEval{
				lr: func(r, ci int, _, out []float64) {
					ev.Distances(profL[lrCand[r][ci]], profR[r], sc, out)
				},
				ll: func(l, ci int, _ config.GroupMask, _, out []float64) {
					ev.Distances(profL[l], profL[llCand[l][ci]], sc, out)
				},
			}
		},
	}
	return in, left, right
}

// llDist1 evaluates the single function of a one-function engineInput
// between left record l and its ci-th L-L candidate (test convenience).
func llDist1(in *engineInput, l, ci int) float64 {
	ev := in.newEval()
	out := make([]float64, len(in.space))
	ev.ll(l, ci, config.AllGroups, nil, out)
	return out[0]
}

func TestPrepareFnBallEstimates(t *testing.T) {
	in, left, _ := figure4Input(t)
	fns := prepare(in, 1)
	if fns[0] == nil {
		t.Fatal("function unexpectedly unjoinable")
	}
	fn := fns[0]
	// r1's best is "2003 alpha squad unit" at Jaccard distance 0.2.
	if got := left[fn.bestL[0]]; got != "2003 alpha squad unit" {
		t.Fatalf("r1 best = %q", got)
	}
	if math.Abs(fn.bestD[0]-0.2) > 1e-9 {
		t.Fatalf("r1 best distance = %f, want 0.2", fn.bestD[0])
	}
	// At the tightest threshold that joins r1 (θ≈0.2), the 2θ-ball of
	// radius 0.4 must contain exactly the center: neighbours sit at
	// distance 0.4 which equals the radius — they ARE included by <=, so
	// the count is center + the 8 one-token neighbours at exactly 0.4.
	k := int(fn.kMin[0])
	radius := 2 * fn.thresholds[k]
	wantBall := 1
	for ci := range in.llCand[fn.bestL[0]] {
		if llDist1(in, int(fn.bestL[0]), ci) <= radius {
			wantBall++
		}
	}
	if got := int(fn.cnt[0][k]); got != wantBall {
		t.Errorf("r1 ball count at kMin = %d, want %d (radius %f)", got, wantBall, radius)
	}
	// r2 joins farther out; its ball at its kMin must be strictly more
	// crowded than r1's, making it the lower-precision join (Figure 4b).
	k2 := int(fn.kMin[1])
	if fn.cnt[1] == nil {
		t.Fatal("r2 unexpectedly unjoinable")
	}
	if int(fn.cnt[1][k2]) <= int(fn.cnt[0][k]) {
		t.Errorf("r2 ball (%d) not more crowded than r1's (%d)", fn.cnt[1][k2], fn.cnt[0][k])
	}
	// Precision estimates are the multiplicative inverse (Eq. 8).
	p1 := 1 / float64(fn.cnt[0][k])
	p2 := 1 / float64(fn.cnt[1][k2])
	if !(p1 > p2) {
		t.Errorf("precision estimates not ordered: %f vs %f", p1, p2)
	}
}

func TestPrepareTotalsMatchRowSums(t *testing.T) {
	in, _, _ := figure4Input(t)
	fns := prepare(in, 1)
	fn := fns[0]
	for k := 0; k < in.steps; k++ {
		var sum float64
		cnt := 0
		for r := 0; r < in.nR; r++ {
			if fn.cnt[r] == nil || fn.kMin[r] > int32(k) {
				continue
			}
			sum += 1 / float64(fn.cnt[r][k])
			cnt++
		}
		if math.Abs(sum-fn.totalP[k]) > 1e-9 || cnt != fn.totalCnt[k] {
			t.Fatalf("totals mismatch at k=%d: %f/%d vs %f/%d",
				k, sum, cnt, fn.totalP[k], fn.totalCnt[k])
		}
	}
}

// TestThresholdGridCoversBestDistances: prepare builds the grid
// θ_k = dCap·(k+1)/s and places every joinable row at the first step k
// with θ_k ≥ d, and a row past θ_s at no step, over the Figure 4 input
// and over seeded random dCap at s = 50: the row at dCap, rows on every
// θ_k and one ulp either side, where a placement from a rounded quotient
// lands one step off, and random rows below dCap.
func TestThresholdGridCoversBestDistances(t *testing.T) {
	check := func(name string, in *engineInput) {
		t.Helper()
		fn, s := prepare(in, 1)[0], in.steps
		dCap := 0.0
		for r, d := range fn.bestD {
			if fn.bestL[r] >= 0 && d < unjoinableDist {
				dCap = max(dCap, d)
			}
		}
		for k, th := range fn.thresholds {
			if th != dCap*float64(k+1)/float64(s) {
				t.Fatalf("%s: θ_%d = %v, want dCap·%d/%d with dCap %v", name, k, th, k+1, s, dCap)
			}
		}
		for r, d := range fn.bestD {
			want := s
			if fn.bestL[r] >= 0 && d < unjoinableDist {
				want = 0
				for want < s && fn.thresholds[want] < d {
					want++
				}
			}
			if got := int(fn.kMin[r]); got != want || (fn.cnt[r] != nil) != (want < s) {
				t.Fatalf("%s: row at %v joins at step %d (ball %v), want %d of %d", name, d, got, fn.cnt[r] != nil, want, s)
			}
		}
	}
	in, _, _ := figure4Input(t)
	check("figure 4", in)

	const s = 50
	rng := rand.New(rand.NewSource(7))
	for draw := range 200 {
		dCap := rng.Float64() * unjoinableDist
		ds := []float64{dCap, 0}
		for k := 1; k <= s; k++ {
			th := dCap * float64(k) / s
			ds = append(ds, min(th, dCap), min(math.Nextafter(th, 0), dCap), min(math.Nextafter(th, 1), dCap))
		}
		for range 20 {
			ds = append(ds, rng.Float64()*dCap)
		}
		check(fmt.Sprintf("draw %d, dCap %v", draw, dCap), &engineInput{
			space: config.Space()[:1], steps: s, nL: 1, nR: len(ds),
			lrCand: slices.Repeat([][]int32{{0}}, len(ds)), llCand: [][]int32{nil},
			newEval: func() pairEval {
				return pairEval{lr: func(r, _ int, _, out []float64) { out[0] = ds[r] }}
			},
		})
	}
}

func TestBetterProfit(t *testing.T) {
	cases := []struct {
		tp1, fp1, tp2, fp2 float64
		want               bool
	}{
		{10, 1, 5, 1, true},   // higher ratio wins
		{5, 1, 10, 1, false},  // lower ratio loses
		{4, 0, 3, 0, true},    // both infinite: larger TP wins
		{3, 0, 4, 0, false},   // both infinite: smaller TP loses
		{1, 0, 100, 1, true},  // infinite beats finite
		{100, 1, 1, 0, false}, // finite loses to infinite
		{2, 1, 4, 2, true},    // equal ratio: larger TP... 2*2=4 vs 4*1=4 tie -> tp1>tp2 false
	}
	for i, c := range cases {
		got := betterProfit(c.tp1, c.fp1, c.tp2, c.fp2)
		want := c.want
		if i == len(cases)-1 {
			want = false // documented tie case
		}
		if got != want {
			t.Errorf("case %d: betterProfit(%v,%v,%v,%v) = %v, want %v",
				i, c.tp1, c.fp1, c.tp2, c.fp2, got, want)
		}
	}
}

func TestGreedyStopsAtPrecisionTarget(t *testing.T) {
	in, _, _ := figure4Input(t)
	fns := prepare(in, 1)
	// With a precision target above the best achievable estimate, the
	// greedy must output an empty program.
	out := greedy(in, fns, Options{PrecisionTarget: 0.999999, ThresholdSteps: in.steps})
	if len(out.program) != 0 {
		// Only acceptable if every joined row has estimate exactly 1.
		for r := 0; r < in.nR; r++ {
			if out.assignedL[r] >= 0 && out.assignedP[r] < 1 {
				t.Fatalf("joined r%d with estimate %f above target", r, out.assignedP[r])
			}
		}
	}
}

func TestExplain(t *testing.T) {
	in, _, _ := figure4Input(t)
	fns := prepare(in, 1)
	// The grid scenario's best estimates are ~1/9 (neighbours sit exactly
	// on the ball boundary), so use a low target to force joins.
	out := greedy(in, fns, Options{PrecisionTarget: 0.05, ThresholdSteps: in.steps})
	res := &Result{Program: out.program}
	joined := false
	for r := 0; r < in.nR; r++ {
		if out.assignedL[r] < 0 {
			continue
		}
		joined = true
		j := Join{
			Right: r, Left: int(out.assignedL[r]),
			Distance: out.assignedD[r], Precision: out.assignedP[r],
			Config: int(out.assignedCfg[r]), Iteration: int(out.assignedIter[r]),
		}
		s := res.Explain(j)
		if s == "" || len(s) < 40 {
			t.Errorf("Explain too terse: %q", s)
		}
	}
	if !joined {
		t.Fatal("nothing joined to explain")
	}
	if s := res.Explain(Join{Config: 99}); s == "" {
		t.Error("Explain on bad config empty")
	}
}

// TestGridCountsMatchSortedWalk: prepare's phase 3 counts a center's ball
// on the threshold grid (ballGrid, then countBall per row); it must give
// the counts of the sort-and-walk it replaced (walkCounts), for distances
// exactly on a radius and one ulp either side, past 2θ_max, +Inf (a cut),
// NaN, a grid of zero width (dCap == 0) or of subnormal width, counts past
// the cap, every kMin and both self-discounts.
func TestGridCountsMatchSortedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inf := math.Inf(1)
	dCaps := []float64{0, 5e-324, 1e-310, 1e-3, 0.1, 0.37, 0.5, 0.9, 0.9994}
	for range 40 {
		dCaps = append(dCaps, rng.Float64()*unjoinableDist)
	}
	for _, dCap := range dCaps {
		for _, s := range []int{1, 3, 7, 20, 50} {
			thresholds := make([]float64, s)
			radii := make([]float64, s)
			for k := range thresholds {
				thresholds[k] = dCap * float64(k+1) / float64(s)
				radii[k] = ballRadius * thresholds[k]
			}
			// Every radius, one ulp either side, and the far cases.
			var onGrid []float64
			for _, r := range radii {
				onGrid = append(onGrid, r, math.Nextafter(r, inf), math.Nextafter(r, -inf))
			}
			onGrid = append(onGrid, 0, inf, 2*radii[s-1]+1, math.Nextafter(radii[s-1], inf))
			random := make([]float64, 300) // past the count cap at wide radii
			for i := range random {
				random[i] = rng.Float64() * 2.2 * dCap
			}
			balls := map[string][]float64{
				"empty":   nil,
				"on-grid": onGrid,
				"random":  random,
				"nan":     append([]float64{0.1 * dCap, math.NaN()}, onGrid...),
			}
			for name, ball := range balls {
				g := newBallGrid(radii, make([]int32, s))
				for _, d := range ball {
					g.add(d)
				}
				le := g.cumulate()
				for kMin := 0; kMin < s; kMin += 1 + s/7 {
					for sd := 0; sd <= 1; sd++ {
						got, want := make([]uint8, s), make([]uint8, s)
						countBall(got, le, kMin, sd)
						walkCounts(want, slices.Clone(ball), thresholds, kMin, sd)
						if !slices.Equal(got, want) {
							t.Fatalf("dCap %v s %d ball %s kMin %d self-discount %d:\ngrid %v\nwalk %v",
								dCap, s, name, kMin, sd, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSelfDiscount: in a self-join a row's ball leaves the row out when
// it is among its center's candidates, and never in a two-table join.
func TestSelfDiscount(t *testing.T) {
	fn := &preparedFn{bestL: []int32{1, 0, 0}}
	llCand := [][]int32{{1}, {2, 0}, {0}}
	for _, c := range []struct {
		selfJoin bool
		r        int32
		want     int
	}{
		{true, 0, 1},  // center 1 lists row 0
		{true, 1, 1},  // center 0 lists row 1
		{true, 2, 0},  // center 0 does not list row 2
		{false, 0, 0}, // a two-table join discounts nothing
	} {
		in := &engineInput{selfJoin: c.selfJoin, llCand: llCand}
		if got := selfDiscount(in, fn, c.r); got != c.want {
			t.Errorf("selfJoin %v row %d: discount %d, want %d", c.selfJoin, c.r, got, c.want)
		}
	}
}

// walkCounts is the 2θ-ball count the engine made before it counted on
// the threshold grid: it sorts ball in place and walks it once from grid
// step kMin on, counting the distances within each radius. counts has
// one slot per step.
func walkCounts(counts []uint8, ball, thresholds []float64, kMin, selfDiscount int) {
	sort.Float64s(ball)
	bi := 0
	for k := kMin; k < len(counts); k++ {
		radius := ballRadius * thresholds[k]
		for bi < len(ball) && ball[bi] <= radius {
			bi++
		}
		c := bi + 1 - selfDiscount
		if c < 1 {
			c = 1
		}
		if c > maxBallCount {
			c = maxBallCount
		}
		counts[k] = uint8(c)
	}
}
