// Columnar-scratch shapes: after the allocation-free serving refactor a
// pooled scratch is built from persistent annotated sub-scratches and
// pointer-free buffers (candidate ids, distance rows, composite key
// bytes), none of which need clearing at the Put site. The analyzer must
// stay silent on that shape — and still fire the moment someone adds a
// field that can pin query memory.
package poolsafe

import "sync"

type candidate struct {
	ID    int32
	Score float64
}

type evalScratch struct {
	rows []float64
}

// columnarScratch mirrors the serving path's tableScratch: every field
// is either an annotated persistent sub-scratch or pointer-free.
type columnarScratch struct {
	//autofj:keep persistent sub-scratch; holds only capacity, never query data
	esc       *evalScratch
	cands     []candidate // struct-of-scalars: pointer-free capacity
	ballCands []candidate
	kbuf      []byte // composite cache key bytes of the last row
	drow      []float64
	bestD     []float64
	bestL     []int32
}

var colPool = sync.Pool{New: func() any { return new(columnarScratch) }}

// goodColumnarPut returns the scratch with no resets at all: nothing in
// it can hold a reference, so the bare Put is exactly right.
func goodColumnarPut(s *columnarScratch) {
	colPool.Put(s)
}

// regressedScratch is columnarScratch after a regression: someone moved
// query-derived cells and profiles back onto the scratch instead of the
// immutable cache entry.
type regressedScratch struct {
	cands  []candidate
	kbuf   []byte
	qcells []string // holds the query's cell strings
	qprofs []*evalScratch
}

var regPool = sync.Pool{New: func() any { return new(regressedScratch) }}

func badColumnarPut(s *regressedScratch) {
	s.qprofs = s.qprofs[:0]
	regPool.Put(s) // want "qcells holds references" "qprofs is only resliced"
}

func fixedColumnarPut(s *regressedScratch) {
	clear(s.qcells[:cap(s.qcells)])
	s.qcells = s.qcells[:0]
	clear(s.qprofs[:cap(s.qprofs)])
	s.qprofs = s.qprofs[:0]
	regPool.Put(s)
}
