package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
)

// This file preserves the pre-refactor FUNCTION-MAJOR prepare as a test
// oracle and benchmark baseline: every join function independently
// re-scans its candidate pairs through a one-function distance callback,
// exactly as the engine worked before the pair-major fused-kernel
// rewrite. The pair-major prepare must reproduce it bit for bit
// (TestPreparePairMajorMatchesFunctionMajor), and BenchmarkPrepare
// quantifies the speedup against it.

// functionMajorPrepare is the old prepare: up to parallelism workers
// each take whole functions; lrDist/llDist score one (function, pair)
// at a time.
func functionMajorPrepare(in *engineInput, lrDist, llDist func(fi, r, ci int) float64, parallelism int) []*preparedFn {
	fns := make([]*preparedFn, len(in.space))
	if len(in.space) == 0 {
		return fns
	}
	outer := parallel.Resolve(parallelism)
	if outer > len(in.space) {
		outer = len(in.space)
	}
	if outer <= 1 {
		for fi := range in.space {
			fns[fi] = functionMajorPrepareFn(in, fi, lrDist, llDist)
		}
		return fns
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fi := int(atomic.AddInt64(&next, 1))
				if fi >= len(in.space) {
					return
				}
				fns[fi] = functionMajorPrepareFn(in, fi, lrDist, llDist)
			}
		}()
	}
	wg.Wait()
	return fns
}

// functionMajorPrepareFn pre-computes one function the old way.
func functionMajorPrepareFn(in *engineInput, fi int, lrDist, llDist func(fi, r, ci int) float64) *preparedFn {
	s := in.steps
	fn := &preparedFn{
		bestL:    make([]int32, in.nR),
		bestD:    make([]float64, in.nR),
		kMin:     make([]int32, in.nR),
		cnt:      make([][]uint8, in.nR),
		totalP:   make([]float64, s),
		totalCnt: make([]int, s),
	}
	dCap := 0.0
	anyJoinable := false
	for r := 0; r < in.nR; r++ {
		fn.bestL[r] = -1
		fn.bestD[r] = math.Inf(1)
		fn.kMin[r] = int32(s)
		for ci := range in.lrCand[r] {
			if d := lrDist(fi, r, ci); d < fn.bestD[r] {
				fn.bestD[r] = d
				fn.bestL[r] = in.lrCand[r][ci]
			}
		}
		if fn.bestL[r] >= 0 && fn.bestD[r] < unjoinableDist {
			anyJoinable = true
			if fn.bestD[r] > dCap {
				dCap = fn.bestD[r]
			}
		}
	}
	if !anyJoinable {
		return nil
	}
	fn.thresholds = make([]float64, s)
	for k := 0; k < s; k++ {
		fn.thresholds[k] = dCap * float64(k+1) / float64(s)
	}
	needBall := make([]bool, in.nL)
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
			for kMin < int32(s) && fn.thresholds[kMin] < d {
				kMin++
			}
		}
		if kMin >= int32(s) {
			continue
		}
		fn.kMin[r] = kMin
		needBall[fn.bestL[r]] = true
		fn.joinable = append(fn.joinable, int32(r))
	}
	if len(fn.joinable) == 0 {
		return nil
	}
	balls := make(map[int32][]float64)
	for l, need := range needBall {
		if !need {
			continue
		}
		ds := make([]float64, len(in.llCand[l]))
		for ci := range ds {
			ds[ci] = llDist(fi, l, ci)
		}
		balls[int32(l)] = ds
	}
	cntArena := make([]uint8, s*len(fn.joinable))
	for ji, r32 := range fn.joinable {
		r := int(r32)
		kMin := fn.kMin[r]
		ball := balls[fn.bestL[r]]
		selfDiscount := 0
		if in.selfJoin {
			for _, id := range in.llCand[fn.bestL[r]] {
				if int(id) == r {
					selfDiscount = 1
					break
				}
			}
		}
		counts := cntArena[ji*s : (ji+1)*s : (ji+1)*s]
		walkCounts(counts, ball, fn.thresholds, int(kMin), selfDiscount)
		for k := int(kMin); k < s; k++ {
			fn.totalP[k] += 1 / float64(counts[k])
			fn.totalCnt[k]++
		}
		fn.cnt[r] = counts
	}
	sort.Slice(fn.joinable, func(a, b int) bool {
		return fn.kMin[fn.joinable[a]] < fn.kMin[fn.joinable[b]]
	})
	return fn
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
