// Package parallel holds the tiny worker-pool primitives shared by the
// blocking layer, the config builders and the core engine: the
// parallelism-knob semantics (0 means GOMAXPROCS, 1 forces sequential)
// and a contiguous-range sharding of a job list. blocking.Block runs its
// own pool instead, handing out chunks from an atomic counter, as its
// rows cost too unevenly for fixed ranges.
package parallel

import (
	"runtime"
	"sync"
)

// Resolve maps the Options.Parallelism convention onto a worker count:
// 0 (or negative) means GOMAXPROCS.
func Resolve(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Workers resolves a parallelism knob against a job count: never more
// than one worker per job, at least one worker.
func Workers(parallelism, jobs int) int {
	w := Resolve(parallelism)
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Shard splits [0, n) into one contiguous range per worker and runs body
// on each, inline when a single worker suffices. Ranges are disjoint, so
// a body that writes only what its range owns needs no lock; state a
// body needs for itself (scratch, an evaluator) it makes on entry.
func Shard(n, workers int, body func(start, end int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start, end := n*w/workers, n*(w+1)/workers
		if start == end {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(start, end)
		}()
	}
	wg.Wait()
}
