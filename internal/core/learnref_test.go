package core

import (
	"math"
	"slices"
	"sort"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// refTask is one blocked learn task for learnRef: the candidates of
// blockCandidates (on concatColumns' keys for several columns), the only
// engine code it shares, and the distance of a blocked pair under
// function fi, d(L_l, R_r) for lr and d(L_l, L_l2) for ll, with the
// center l first.
type refTask struct {
	opt            Options // with defaults
	nR             int
	lrCand, llCand [][]int32
	selfJoin       bool // R is L: a row leaves itself out of its ball
	lr, ll         func(fi, r, l int) float64
}

// refFn is Algorithm 1 lines 3–4 for one function: the closest candidate
// of every r, the threshold grid θ_1..θ_s, the first step at which r
// joins (s when never) and, from there on, its 2θ-ball.
type refFn struct {
	th           []float64
	bestL        []int32
	bestD        []float64
	kMin         []int
	ball         [][]int
	rows, walked []int32 // joinable rows ascending, and in addConfig's walk order
}

func refPrepare(t *refTask, fi int) *refFn {
	s := t.opt.ThresholdSteps
	f := &refFn{bestL: make([]int32, t.nR), bestD: make([]float64, t.nR), kMin: make([]int, t.nR), ball: make([][]int, t.nR)}
	dCap := 0.0
	for r := range t.nR {
		f.bestL[r], f.bestD[r], f.kMin[r] = -1, math.Inf(1), s
		for _, l := range t.lrCand[r] { // the first minimum in blocking order
			if d := t.lr(fi, r, int(l)); d < f.bestD[r] {
				f.bestL[r], f.bestD[r] = l, d
			}
		}
		if f.bestL[r] >= 0 && f.bestD[r] < 0.9995 { // 1 is "cannot match"
			dCap = max(dCap, f.bestD[r])
		}
	}
	for k := range s {
		f.th = append(f.th, dCap*float64(k+1)/float64(s))
	}
	for r := range t.nR {
		d, l := f.bestD[r], f.bestL[r]
		if l < 0 || d >= 0.9995 {
			continue
		}
		k := 0 // r joins from the first θ_k >= d on
		for k < s && f.th[k] < d {
			k++
		}
		if k == s {
			continue
		}
		f.kMin[r], f.ball[r] = k, make([]int, s)
		self := 0 // in a self-join r is in its own ball when l lists it
		if t.selfJoin && slices.Contains(t.llCand[l], int32(r)) {
			self = 1
		}
		for ; k < s; k++ { // Eq. 8: the L records within 2θ_k of l, l counted
			c := 1 - self
			for _, l2 := range t.llCand[l] {
				if t.ll(fi, int(l), int(l2)) <= 2*f.th[k] {
					c++
				}
			}
			f.ball[r][k] = min(max(c, 1), 250)
		}
		f.rows = append(f.rows, int32(r))
	}
	if len(f.rows) == 0 {
		return nil
	}
	f.walked = slices.Clone(f.rows)
	sort.Slice(f.walked, func(a, b int) bool { return f.kMin[f.walked[a]] < f.kMin[f.walked[b]] })
	return f
}

// learnRef is Algorithm 1 from the paper's equations: each join (f, θ_k)
// makes is judged by Eq. 9's 1/|ball| estimate, and the greedy union adds
// the configuration whose union has the best TP/FP until the estimated
// precision falls to τ. Sums run in the engine's order, as its float bits
// are part of its answer: a configuration's marginal TP is its joinable
// rows' estimates summed in ascending r, minus those of the rows already
// assigned, in the order they were assigned.
func learnRef(t *refTask) *Result {
	s, space, tau := t.opt.ThresholdSteps, t.opt.Space, t.opt.PrecisionTarget
	fns := make([]*refFn, len(space))
	for fi := range fns {
		fns[fi] = refPrepare(t, fi)
	}
	est := func(tp, fp float64) float64 {
		if tp+fp == 0 {
			return 0
		}
		return tp / (tp + fp)
	}
	// sum returns Σ 1/ball and the count of the rows joinable at θ_k.
	sum := func(f *refFn, k int, rows []int32) (p float64, n int) {
		for _, r := range rows {
			if f.kMin[r] <= k {
				p, n = p+1/float64(f.ball[r][k]), n+1
			}
		}
		return p, n
	}
	res := &Result{}
	left := slices.Repeat([]int32{-1}, t.nR)
	pr, dist, cfg, iter := make([]float64, t.nR), make([]float64, t.nR), make([]int, t.nR), make([]int, t.nR)
	var assigned []int32 // in the order rows were first assigned
	tp, fp := 0.0, 0.0
	add := func(fi, k, it int) { // a row keeps its most confident join
		f := fns[fi]
		res.Program = append(res.Program, Configuration{Function: space[fi], Threshold: f.th[k]})
		c := len(res.Program) - 1
		for _, r := range f.walked {
			if f.kMin[r] > k {
				continue
			}
			switch p := 1 / float64(f.ball[r][k]); {
			case left[r] < 0:
				left[r], pr[r], dist[r], cfg[r], iter[r] = f.bestL[r], p, f.bestD[r], c, it
				tp, fp = tp+p, fp+(1-p)
				assigned = append(assigned, r)
			case p > pr[r]:
				tp, fp = tp+(p-pr[r]), fp-(p-pr[r])
				if pr[r] = p; left[r] != f.bestL[r] {
					left[r], dist[r], cfg[r], iter[r] = f.bestL[r], f.bestD[r], c, it
				}
			}
		}
		res.Trace = append(res.Trace, IterationStat{Config: res.Program[c], EstPrecision: est(tp, fp), EstRecall: tp, Joined: len(assigned)})
	}
	for it := 1; ; it++ {
		bi, bk, btp, bfp := -1, 0, 0.0, 0.0
		for fi, f := range fns {
			for k := 0; f != nil && k < s; k++ {
				all, n := sum(f, k, f.rows)
				if t.opt.SingleConfiguration { // the most TP at a precision over τ
					if n > 0 && all/float64(n) > tau && all > btp {
						bi, bk, btp = fi, k, all
					}
					continue
				}
				held, m := sum(f, k, assigned)
				if n == m {
					continue
				}
				ctp, cfp := tp+(all-held), fp+(float64(n-m)-(all-held))
				// TP/FP cross-multiplied, as FP may be 0; ties go to more TP.
				if a, b := ctp*bfp, btp*cfp; bi < 0 || a > b || a == b && ctp > btp {
					bi, bk, btp, bfp = fi, k, ctp, cfp
				}
			}
		}
		if bi < 0 || !t.opt.SingleConfiguration && est(btp, bfp) <= tau {
			break
		}
		if add(bi, bk, it); t.opt.SingleConfiguration {
			break
		}
	}
	res.EstPrecision, res.EstRecall = est(tp, fp), tp
	for r := range t.nR {
		if left[r] >= 0 {
			res.Joins = append(res.Joins, Join{Right: r, Left: int(left[r]), Distance: dist[r], Precision: pr[r], Config: cfg[r], Iteration: iter[r]})
		}
	}
	return res
}

// refRun is learnRef on the task of JoinTables (one column, w nil),
// SelfJoin (one column, rc nil) or JoinMultiColumnTables at the column
// weights w, every distance from the string path: Profiles under a corpus
// over one column of L and R (L alone in a self-join), scored by
// JoinFunction.Distance. A weighted distance rounds each column's to
// float32, as the engine stores it (1 when both cells are empty), and
// sums the weighted columns in column order.
func refRun(lc, rc [][]string, w []float64, opt Options) *Result {
	t := &refTask{opt: opt.withDefaults(), nR: len(lc[0]), selfJoin: rc == nil}
	pL, pR := make([][]*config.Profile, len(lc)), make([][]*config.Profile, len(lc))
	for j := range lc {
		if t.selfJoin {
			pL[j] = config.NewCorpus(t.opt.Space, lc[j]).Profiles(lc[j], 1)
			pR[j] = pL[j]
			continue
		}
		c := config.NewCorpus(t.opt.Space, lc[j], rc[j])
		pL[j], pR[j] = c.Profiles(lc[j], 1), c.Profiles(rc[j], 1)
	}
	switch {
	case t.selfJoin:
		t.llCand = blockCandidates(lc[0], nil, t.opt, false).llCand
		t.lrCand, rc = t.llCand, lc
	case w == nil:
		b := blockCandidates(lc[0], rc[0], t.opt, !t.opt.DisableNegativeRules)
		t.nR, t.lrCand, t.llCand = len(rc[0]), b.lrCand, b.llCand
	default:
		b := blockCandidates(concatColumns(lc), concatColumns(rc), t.opt, !t.opt.DisableNegativeRules)
		t.nR, t.lrCand, t.llCand = len(rc[0]), b.lrCand, b.llCand
	}
	d := func(fi int, c [][]string, p [][]*config.Profile, l, i int) (sum float64) {
		if w == nil {
			return t.opt.Space[fi].Distance(pL[0][l], p[0][i])
		}
		for j, wj := range w {
			dj := float32(1)
			if lc[j][l] != "" || c[j][i] != "" {
				dj = float32(t.opt.Space[fi].Distance(pL[j][l], p[j][i]))
			}
			if wj > 0 {
				sum += float64(wj * float64(dj))
			}
		}
		return sum
	}
	t.lr = func(fi, r, l int) float64 { return d(fi, rc, pR, l, r) }
	t.ll = func(fi, l, l2 int) float64 { return d(fi, lc, pL, l, l2) }
	return learnRef(t)
}
