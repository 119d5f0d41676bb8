package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
)

// unjoinableDist is the sentinel above which a candidate distance is
// treated as "no match possible" (e.g. the Contain-* hybrids emit exactly 1
// for non-contained pairs). Thresholds never reach this value, so such
// pairs can never join.
const unjoinableDist = 0.9995

// maxBallCount caps the 2θ-ball cardinality; precision estimates below
// 1/250 are all "hopeless" for any realistic τ, so the cap loses nothing.
const maxBallCount = 250

// ballRadius is the estimation ball's radius in units of the threshold:
// a join at threshold θ is judged by the reference records within 2θ of
// its target, the triangle-inequality argument of Eq. 8.
const ballRadius = 2

// reciprocal[c] is 1/float64(c), the precision estimate (Eq. 9) of a join
// whose 2θ-ball holds c records: ball counts fit a uint8, so the profit
// sums look the quotient up instead of dividing at every step. A lookup
// gives the bits of the division it replaces.
var reciprocal = func() (t [256]float64) {
	for c := range t {
		t[c] = 1 / float64(c)
	}
	return t
}()

// engineInput abstracts the distance oracle so that the same greedy
// machinery (Algorithm 1) serves both single-column joins (distances over
// learn rows, see idPairs) and multi-column joins (weighted per-column
// tensors).
type engineInput struct {
	space  []config.JoinFunction
	steps  int
	nL, nR int
	// lrCand[r] lists candidate left ids for right record r (post blocking
	// and negative-rule filtering); llCand[l] lists candidate left ids for
	// left record l (self excluded).
	lrCand [][]int32
	llCand [][]int32
	// newEval returns a fresh per-worker fused distance oracle. Pair-major
	// evaluation is the engine's whole performance story: one oracle call
	// scores a candidate pair under EVERY join function at once, sharing
	// the representation work (sorted-merges, rune conversions, dot
	// products) that a function-at-a-time loop would redo up to 140 times
	// per pair.
	newEval func() pairEval
	// selfJoin marks that right record r IS left record r (same table):
	// the 2θ-ball count around a join target must then exclude the query
	// record itself, which would otherwise poison every estimate with a
	// guaranteed extra ball member (its own duplicate candidate).
	selfJoin bool
}

// pairEval is a per-worker fused distance oracle: lr fills out[fi] with
// the distance under join function fi between right record r and its
// ci-th blocked candidate; ll does the same between left record l (a
// ball center) and its ci-th L-L candidate, for at least the functions
// of the evaluator groups in need, leaving other slots as they were. An
// oracle that scores functions separately sets mask, which turns the
// functions a center needs into that group mask; one without mask scores
// every function whatever need says. out has len(space) entries. An
// oracle may give +Inf to a function a bound puts past its cut (see
// config.Evaluator.RowDistances; nil cuts nothing). Implementations may
// carry scratch, so oracles must not be shared
// across goroutines — every worker gets its own from engineInput.newEval.
type pairEval struct {
	lr   func(r, ci int, cut, out []float64)
	ll   func(l, ci int, need config.GroupMask, cut, out []float64)
	mask func(fns []fnCenter) config.GroupMask
}

// preparedFn is the pre-computation of Algorithm 1 lines 3–4 for one join
// function: per-right-record closest candidates, the threshold grid, and
// the 2θ-ball counts behind the precision estimate of Eq. (9).
type preparedFn struct {
	thresholds []float64 // grid of s candidate θ values
	bestL      []int32   // closest candidate per r, -1 if none
	bestD      []float64 // distance to bestL
	kMin       []int32   // first grid index at which r joins; steps if never
	// cnt[r][k] is the number of L records in the 2·θ_k ball around
	// bestL[r] (including the center), for k >= kMin[r]; nil when r can
	// never join under this function.
	cnt [][]uint8
	// totalP[k] = Σ_r joined at k of 1/cnt[r][k]; totalCnt[k] the count of
	// joined rows. These make per-iteration profit lookups O(1).
	totalP   []float64
	totalCnt []int
	// joinable lists r ids with kMin < steps, ascending by kMin.
	joinable []int32
}

// ballPlan is the per-function bookkeeping that connects the pair-major
// center pass (phase 3) back to the function's joinable rows: which ball
// centers the function needs, and which joinable rows (by index into
// preparedFn.joinable) hang off each center.
type ballPlan struct {
	centers []int32 // ascending left ids needing a ball under this fn
	rowOff  []int32 // group offsets into rows, len(centers)+1
	rows    []int32 // joinable indexes grouped by center, ascending inside a group
	arena   []uint8 // backing storage for preparedFn.cnt, steps per row
	// radii[k] is the ball radius at grid step k, ballRadius·thresholds[k]:
	// nondecreasing in k, so a ball is counted on the grid (see ballGrid).
	radii []float64
}

// fnCenter addresses one (function, center) pair of the phase-3 pass.
type fnCenter struct {
	fi int32 // function index
	ci int32 // index into that function's ballPlan.centers
}

// prepare runs the distance computation and precision pre-computation for
// every function in the space, fanning out across CPUs. Evaluation is
// PAIR-MAJOR: each candidate pair is scored once under all functions by a
// fused pairEval oracle, instead of once per function — for the full
// 140-function space that collapses ~16 sparse-vector merges and 4
// processed-string rune conversions per pair that the function-major
// loop recomputed per function. Four phases:
//
//  1. sharded over right records: one fused evaluation per L-R candidate
//     pair updates every function's closest-candidate scan at once;
//  2. sharded over functions: threshold grids, grid positions, joinable
//     rows, and the per-function ball-center grouping;
//  3. sharded over the UNION of ball centers: one fused evaluation per
//     L-L candidate pair, restricted to the evaluator groups of the
//     functions that need that center, buckets each such function's ball
//     distance at the first grid step whose 2θ radius holds it; a prefix
//     sum then gives the ball at every step, and each joinable row of the
//     center copies its counts from its own kMin on (no sort, no walk);
//  4. sharded over functions: the totalP/totalCnt profit accumulators,
//     summed sequentially in ascending right-record order so the
//     floating-point accumulation order never depends on scheduling, each
//     term looked up in reciprocal rather than divided.
//
// Functions with no joinable pair are nil. The output is bit-identical
// for every parallelism level, and bit-identical to the function-major
// reference implementation (see prepare_baseline_test.go).
func prepare(in *engineInput, parallelism int) []*preparedFn {
	numFn := len(in.space)
	fns := make([]*preparedFn, numFn)
	if numFn == 0 {
		return fns
	}
	workers := parallel.Resolve(parallelism)
	s := in.steps
	for fi := range fns {
		fns[fi] = &preparedFn{
			bestL:    make([]int32, in.nR),
			bestD:    make([]float64, in.nR),
			kMin:     make([]int32, in.nR),
			cnt:      make([][]uint8, in.nR),
			totalP:   make([]float64, s),
			totalCnt: make([]int, s),
		}
	}

	// Phase 1 (pair-major, sharded over right records): closest candidate
	// per (function, right record). Rows are independent; within a row,
	// candidates are scanned in blocking order with a strict <, so the
	// first minimum wins exactly as in a function-major scan. A function's
	// cut is its running bestD: a pair past it is no new minimum.
	// The row's scan runs in dense per-function arrays, written back once.
	parallel.Shard(in.nR, workers, func(start, end int) {
		ev := in.newEval()
		d := make([]float64, numFn)
		cut := make([]float64, numFn) // the running bestD
		bestL := make([]int32, numFn)
		for r := start; r < end; r++ {
			for fi := range cut {
				cut[fi] = math.Inf(1)
				bestL[fi] = -1
			}
			for ci, l := range in.lrCand[r] {
				ev.lr(r, ci, cut, d)
				for fi, dv := range d {
					if dv < cut[fi] {
						cut[fi] = dv
						bestL[fi] = l
					}
				}
			}
			for fi, fn := range fns {
				fn.bestL[r] = bestL[fi]
				fn.bestD[r] = cut[fi]
				fn.kMin[r] = int32(s)
			}
		}
	})

	// Phase 2 (sharded over functions): threshold grid, grid position of
	// every joinable row, and the ball centers grouped for phase 3.
	plans := make([]*ballPlan, numFn)
	parallel.Shard(numFn, workers, func(start, end int) {
		// at[l] is l's index among the function's ball centers, -1 when l
		// is none; it is reset after each function.
		at := make([]int32, in.nL)
		for l := range at {
			at[l] = -1
		}
		for fi := start; fi < end; fi++ {
			fn := fns[fi]
			dCap := 0.0
			anyJoinable := false
			for r := 0; r < in.nR; r++ {
				if fn.bestL[r] >= 0 && fn.bestD[r] < unjoinableDist {
					anyJoinable = true
					if fn.bestD[r] > dCap {
						dCap = fn.bestD[r]
					}
				}
			}
			if !anyJoinable {
				fns[fi] = nil
				continue
			}
			fn.thresholds = make([]float64, s)
			for k := 0; k < s; k++ {
				fn.thresholds[k] = dCap * float64(k+1) / float64(s)
			}
			nCenters := 0
			for r := 0; r < in.nR; r++ {
				d := fn.bestD[r]
				if fn.bestL[r] < 0 || d >= unjoinableDist {
					continue
				}
				var kMin int32
				if dCap > 0 {
					kMin = int32(math.Ceil(d*float64(s)/dCap)) - 1
					if kMin < 0 {
						kMin = 0
					}
					// Float round-off can land one step early; repair.
					for kMin < int32(s) && fn.thresholds[kMin] < d {
						kMin++
					}
				}
				if kMin >= int32(s) {
					continue
				}
				fn.kMin[r] = kMin
				if at[fn.bestL[r]] < 0 {
					at[fn.bestL[r]] = 0 // a center; its index comes below
					nCenters++
				}
				fn.joinable = append(fn.joinable, int32(r))
			}
			if len(fn.joinable) == 0 {
				fns[fi] = nil
				continue
			}
			// Group joinable rows by their ball center so phase 3 can
			// consume a center's sorted ball for all its rows at once.
			plan := &ballPlan{
				centers: make([]int32, 0, nCenters),
				arena:   make([]uint8, s*len(fn.joinable)),
				radii:   make([]float64, s),
			}
			for k, th := range fn.thresholds {
				plan.radii[k] = ballRadius * th
			}
			for l, c := range at {
				if c >= 0 {
					at[l] = int32(len(plan.centers))
					plan.centers = append(plan.centers, int32(l))
				}
			}
			plan.rowOff = make([]int32, len(plan.centers)+1)
			for _, r32 := range fn.joinable {
				plan.rowOff[at[fn.bestL[r32]]+1]++
			}
			for i := 0; i < len(plan.centers); i++ {
				plan.rowOff[i+1] += plan.rowOff[i]
			}
			plan.rows = make([]int32, len(fn.joinable))
			fill := make([]int32, len(plan.centers))
			for ji, r32 := range fn.joinable {
				c := at[fn.bestL[r32]]
				plan.rows[plan.rowOff[c]+fill[c]] = int32(ji)
				fill[c]++
			}
			for _, l := range plan.centers {
				at[l] = -1
			}
			plans[fi] = plan
		}
	})

	// Union of ball centers across functions, in ascending left id, plus,
	// per center, the list of functions that need it (built sequentially:
	// it is a cheap index pass, and shared append targets must not race).
	// A center costs in proportion to the functions that need it, and
	// the centers first needed by later functions of the space are needed
	// by few, so id order, not first-need order, spreads the cost evenly
	// over phase 3's contiguous shards.
	gIdx := make([]int32, in.nL)
	for i := range gIdx {
		gIdx[i] = -1
	}
	for fi := range fns {
		if fns[fi] == nil {
			continue
		}
		for _, l := range plans[fi].centers {
			gIdx[l] = 0
		}
	}
	var centers []int32
	for l, g := range gIdx {
		if g == 0 {
			gIdx[l] = int32(len(centers))
			centers = append(centers, int32(l))
		}
	}
	perCenter := make([][]fnCenter, len(centers))
	for fi := range fns {
		if fns[fi] == nil {
			continue
		}
		for ci, l := range plans[fi].centers {
			gi := gIdx[l]
			perCenter[gi] = append(perCenter[gi], fnCenter{fi: int32(fi), ci: int32(ci)})
		}
	}

	// Phase 3 (pair-major, sharded over the center union): every L-L
	// candidate pair of a center is evaluated ONCE under the functions
	// that need the center (a center is typically needed by a third of
	// the space, and the oracle skips the kernels of the rest); each of
	// them buckets the distance on its threshold grid, and once the
	// center's candidates are done, counts the 2θ-balls of its rows from
	// the prefix sums. A needing function's cut is its widest radius,
	// 2θ_max; the others' is -Inf, as they are not read. Writes are
	// disjoint — every (function, joinable row) belongs to exactly one
	// center — so scheduling cannot change the output.
	parallel.Shard(len(centers), workers, func(start, end int) {
		ev := in.newEval()
		row := make([]float64, numFn)
		cut := make([]float64, numFn)
		for fi := range cut {
			cut[fi] = math.Inf(-1)
		}
		var buckets []int32  // per-center [len(need)][s] grid counts
		var grids []ballGrid // per-center, one per function in need
		for gi := start; gi < end; gi++ {
			l := int(centers[gi])
			need := perCenter[gi]
			mask := config.AllGroups
			if ev.mask != nil {
				mask = ev.mask(need)
			}
			if cap(buckets) < len(need)*s {
				buckets = make([]int32, len(need)*s)
			}
			buckets = buckets[:len(need)*s]
			clear(buckets)
			grids = grids[:0]
			for k, fc := range need {
				grids = append(grids, newBallGrid(plans[fc.fi].radii, buckets[k*s:(k+1)*s]))
				cut[fc.fi] = grids[k].rMax
			}
			for ci := range in.llCand[l] {
				ev.ll(l, ci, mask, cut, row)
				for k, fc := range need {
					grids[k].add(row[fc.fi])
				}
			}
			for _, fc := range need {
				cut[fc.fi] = math.Inf(-1)
			}
			for k, fc := range need {
				fn, plan := fns[fc.fi], plans[fc.fi]
				le := grids[k].cumulate()
				for _, ji := range plan.rows[plan.rowOff[fc.ci]:plan.rowOff[fc.ci+1]] {
					r := fn.joinable[ji]
					counts := plan.arena[int(ji)*s : int(ji+1)*s : int(ji+1)*s]
					countBall(counts, le, int(fn.kMin[r]), selfDiscount(in, fn, r))
					fn.cnt[r] = counts
				}
			}
		}
	})

	// Phase 4 (sharded over functions): profit accumulators. The float
	// additions run sequentially in ascending right-record order per
	// function — the same order at every parallelism level.
	parallel.Shard(numFn, workers, func(start, end int) {
		for fi := start; fi < end; fi++ {
			fn := fns[fi]
			if fn == nil {
				continue
			}
			for _, r32 := range fn.joinable {
				r := int(r32)
				counts := fn.cnt[r]
				for k := int(fn.kMin[r]); k < s; k++ {
					fn.totalP[k] += reciprocal[counts[k]]
					fn.totalCnt[k]++
				}
			}
			sort.Slice(fn.joinable, func(a, b int) bool {
				return fn.kMin[fn.joinable[a]] < fn.kMin[fn.joinable[b]]
			})
		}
	})
	return fns
}

// ballGrid counts one (center, function) ball on the function's threshold
// grid: it buckets each ball distance d at the first step k with
// d <= radii[k], and a prefix sum then gives the ball at every step. The
// counts are those of sorting the ball and walking it once over the
// radii (walkCounts, which the tests hold this to), without the sort.
type ballGrid struct {
	radii []float64
	rMax  float64 // radii[s-1], 2θ_max
	scale float64 // s/rMax: places a distance on the grid
	le    []int32 // bucket counts; after cumulate, the ball at every step
	nan   bool    // a NaN distance was seen
}

// newBallGrid starts the count of one ball over radii (nondecreasing, at
// least one) in le, which must be zero and have one slot per radius.
func newBallGrid(radii []float64, le []int32) ballGrid {
	rMax := radii[len(radii)-1]
	return ballGrid{radii: radii, rMax: rMax, scale: float64(len(radii)) / rMax, le: le}
}

// add counts one ball distance. A distance past every radius (beyond
// 2θ_max, or +Inf from a cut) joins no bucket; neither does a NaN, which
// is noted for cumulate.
func (g *ballGrid) add(d float64) {
	if d <= g.rMax {
		g.place(d)
	} else if d != d {
		g.nan = true
	}
}

// place buckets a distance within 2θ_max. Its step is first put at
// floor(d/2θ_max·s), which is the ceil(d/2θ_max·s)−1 the grid's shape
// gives except where d/2θ_max·s is a whole number, and then repaired both
// ways with the radii themselves, which also absorbs float round-off.
func (g *ballGrid) place(d float64) {
	if d <= 0 { // radii[0] >= 0; also every d when 2θ_max is 0
		g.le[0]++
		return
	}
	k := min(max(int(d*g.scale), 0), len(g.radii)-1) // scale may overflow to +Inf
	for k > 0 && d <= g.radii[k-1] {
		k--
	}
	for !(d <= g.radii[k]) {
		k++
	}
	g.le[k]++
}

// cumulate turns the bucket counts into le[k], the number of ball
// distances within radii[k], and returns le. A NaN in the ball gives 0 at
// every step, so the center counts alone, as in the sort-and-walk count:
// sort.Float64s orders NaN before every number, and the walk never moves
// past it.
func (g *ballGrid) cumulate() []int32 {
	if g.nan {
		clear(g.le)
		return g.le
	}
	for k := 1; k < len(g.le); k++ {
		g.le[k] += g.le[k-1]
	}
	return g.le
}

// countBall fills one joinable row's 2θ-ball counts from its center's
// cumulated grid le, from the row's kMin on.
func countBall(counts []uint8, le []int32, kMin, selfDiscount int) {
	for k := kMin; k < len(counts); k++ {
		c := int(le[k]) + 1 - selfDiscount // +1 for the center record itself
		if c < 1 {
			c = 1
		}
		if c > maxBallCount {
			c = maxBallCount
		}
		counts[k] = uint8(c)
	}
}

// selfDiscount is 1 when the ball of join row r must leave r out: in
// self-join mode the query record r is itself in the reference table;
// since θ_k >= d it always falls inside the ball and must be discounted
// when it is among the center's blocked candidates.
func selfDiscount(in *engineInput, fn *preparedFn, r int32) int {
	if !in.selfJoin {
		return 0
	}
	for _, id := range in.llCand[fn.bestL[r]] {
		if id == r {
			return 1 // the query record sits in its own ball
		}
	}
	return 0
}

// engineOut is the raw outcome of the greedy search.
type engineOut struct {
	program      []Configuration
	assignedL    []int32
	assignedP    []float64
	assignedD    []float64
	assignedCfg  []int32
	assignedIter []int32
	tp, fp       float64
	trace        []IterationStat
}

// betterProfit reports whether profit tp1/fp1 beats tp2/fp2, breaking ties
// by larger TP. Cross-multiplication avoids dividing by zero FP.
func betterProfit(tp1, fp1, tp2, fp2 float64) bool {
	a := tp1 * fp2
	b := tp2 * fp1
	if a != b {
		return a > b
	}
	return tp1 > tp2
}

// greedy implements Algorithm 1 lines 5–15 over the prepared space.
func greedy(in *engineInput, fns []*preparedFn, opt Options) *engineOut {
	s := in.steps
	out := &engineOut{
		assignedL:    make([]int32, in.nR),
		assignedP:    make([]float64, in.nR),
		assignedD:    make([]float64, in.nR),
		assignedCfg:  make([]int32, in.nR),
		assignedIter: make([]int32, in.nR),
	}
	for r := range out.assignedL {
		out.assignedL[r] = -1
		out.assignedCfg[r] = -1
	}
	// assignedP/assignedCnt mirror preparedFn.totalP/totalCnt but only over
	// rows already assigned, so the marginal profit of a candidate config
	// is a pair of O(1) lookups.
	asgP := make([][]float64, len(fns))
	asgCnt := make([][]int, len(fns))
	for fi := range fns {
		if fns[fi] != nil {
			asgP[fi] = make([]float64, s)
			asgCnt[fi] = make([]int, s)
		}
	}
	// markAssigned removes the contribution of rows, newly assigned, from
	// every function's unassigned pool. Functions are sharded over the
	// workers; each adds the rows in the order given, the order in which
	// a row-at-a-time update would have summed them.
	workers := parallel.Resolve(opt.Parallelism)
	markAssigned := func(rows []int32) {
		parallel.Shard(len(fns), workers, func(start, end int) {
			for fi := start; fi < end; fi++ {
				fn := fns[fi]
				if fn == nil {
					continue
				}
				p, c := asgP[fi], asgCnt[fi]
				for _, r := range rows {
					counts := fn.cnt[r]
					if counts == nil {
						continue
					}
					for k := int(fn.kMin[r]); k < s; k++ {
						p[k] += reciprocal[counts[k]]
						c[k]++
					}
				}
			}
		})
	}
	var fresh []int32 // rows the last configuration assigned

	if opt.SingleConfiguration {
		// AutoFJ-UC ablation: pick the single configuration with the
		// highest estimated recall whose estimated precision exceeds τ.
		bestFi, bestK, bestTP := -1, -1, 0.0
		for fi, fn := range fns {
			if fn == nil {
				continue
			}
			for k := 0; k < s; k++ {
				tp := fn.totalP[k]
				cnt := fn.totalCnt[k]
				if cnt == 0 {
					continue
				}
				if tp/float64(cnt) > opt.PrecisionTarget && tp > bestTP {
					bestFi, bestK, bestTP = fi, k, tp
				}
			}
		}
		if bestFi >= 0 {
			// The search ends here, so no pool needs the rows removed.
			addConfig(in, fns[bestFi], bestFi, bestK, 1, out, nil)
			out.trace = append(out.trace, IterationStat{
				Config:       out.program[0],
				EstPrecision: estPrecision(out.tp, out.fp),
				EstRecall:    out.tp,
				Joined:       countAssigned(out.assignedL),
			})
		}
		return out
	}

	for iter := 1; ; iter++ {
		bestFi, bestK := -1, -1
		bestTP, bestFP := 0.0, 0.0
		found := false
		for fi, fn := range fns {
			if fn == nil {
				continue
			}
			for k := 0; k < s; k++ {
				dCnt := fn.totalCnt[k] - asgCnt[fi][k]
				if dCnt == 0 {
					continue
				}
				dTP := fn.totalP[k] - asgP[fi][k]
				tp := out.tp + dTP
				fp := out.fp + (float64(dCnt) - dTP)
				if !found || betterProfit(tp, fp, bestTP, bestFP) {
					found = true
					bestFi, bestK, bestTP, bestFP = fi, k, tp, fp
				}
			}
		}
		if !found {
			break
		}
		if estPrecision(bestTP, bestFP) <= opt.PrecisionTarget {
			break
		}
		fresh = addConfig(in, fns[bestFi], bestFi, bestK, iter, out, fresh[:0])
		if len(fresh) == 0 {
			// The pools said the configuration joins a row no configuration
			// has assigned; had addConfig not assigned one, the next
			// iteration would pick the same configuration, forever.
			panic(fmt.Sprintf("core: greedy: %s at threshold %v assigned no fresh row, but addConfig must assign at least one whenever dCnt > 0",
				in.space[bestFi].Name(), fns[bestFi].thresholds[bestK]))
		}
		markAssigned(fresh)
		out.trace = append(out.trace, IterationStat{
			Config:       out.program[len(out.program)-1],
			EstPrecision: estPrecision(out.tp, out.fp),
			EstRecall:    out.tp,
			Joined:       countAssigned(out.assignedL),
		})
	}
	return out
}

// addConfig appends configuration (fi, k) to the program and applies its
// joins, resolving conflicts toward the higher-precision assignment
// (§3.1, "Estimate for a set of configurations"). It appends the rows it
// assigns for the first time to fresh, in ascending kMin order, and
// returns it.
func addConfig(in *engineInput, fn *preparedFn, fi, k, iter int, out *engineOut, fresh []int32) []int32 {
	cfgIdx := int32(len(out.program))
	out.program = append(out.program, Configuration{
		Function:  in.space[fi],
		Threshold: fn.thresholds[k],
	})
	for _, r32 := range fn.joinable {
		r := int(r32)
		if fn.kMin[r] > int32(k) {
			break // joinable is sorted by kMin
		}
		p := reciprocal[fn.cnt[r][k]]
		switch {
		case out.assignedL[r] < 0:
			out.assignedL[r] = fn.bestL[r]
			out.assignedP[r] = p
			out.assignedD[r] = fn.bestD[r]
			out.assignedCfg[r] = cfgIdx
			out.assignedIter[r] = int32(iter)
			out.tp += p
			out.fp += 1 - p
			fresh = append(fresh, r32)
		case out.assignedL[r] == fn.bestL[r]:
			// Same join produced again: keep the more confident estimate.
			if p > out.assignedP[r] {
				out.tp += p - out.assignedP[r]
				out.fp -= p - out.assignedP[r]
				out.assignedP[r] = p
			}
		default:
			// Conflicting assignment: keep the more confident join.
			if p > out.assignedP[r] {
				out.tp += p - out.assignedP[r]
				out.fp -= p - out.assignedP[r]
				out.assignedP[r] = p
				out.assignedL[r] = fn.bestL[r]
				out.assignedD[r] = fn.bestD[r]
				out.assignedCfg[r] = cfgIdx
				out.assignedIter[r] = int32(iter)
			}
		}
	}
	return fresh
}

func estPrecision(tp, fp float64) float64 {
	if tp+fp == 0 {
		return 0
	}
	return tp / (tp + fp)
}

func countAssigned(assigned []int32) int {
	n := 0
	for _, a := range assigned {
		if a >= 0 {
			n++
		}
	}
	return n
}

// run executes prepare + greedy and packages the result.
func run(in *engineInput, opt Options) *Result {
	t0 := time.Now()
	fns := prepare(in, opt.Parallelism)
	t1 := time.Now()
	out := greedy(in, fns, opt)
	t2 := time.Now()
	res := &Result{
		Timing:       Timing{Precompute: t1.Sub(t0), Greedy: t2.Sub(t1)},
		Program:      out.program,
		EstPrecision: estPrecision(out.tp, out.fp),
		EstRecall:    out.tp,
		Trace:        out.trace,
	}
	for r := 0; r < in.nR; r++ {
		if out.assignedL[r] < 0 {
			continue
		}
		res.Joins = append(res.Joins, Join{
			Right:     r,
			Left:      int(out.assignedL[r]),
			Distance:  out.assignedD[r],
			Precision: out.assignedP[r],
			Config:    int(out.assignedCfg[r]),
			Iteration: int(out.assignedIter[r]),
		})
	}
	return res
}
