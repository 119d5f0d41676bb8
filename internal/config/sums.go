package config

import (
	"math"
	"sync/atomic"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// Cut bounds a RowDistances call. A group whose bound is past D[fi] for
// every function fi of it runs no kernel, and its functions get +Inf: a
// char group by distance.CharBound, and, when Sums is set, a set group by
// distance.SetBound, which reads the IDF Sum and Norm of the scored row's
// runs from Sums under key Row (an equal-weight run's follow from its
// counts). A set group's kernel stores the values it accumulates there.
type Cut struct {
	D    []float64
	Sums *SumCache
	Row  int
}

// SumCache keeps, per row key and IDF-weighted representation of one
// program column, the Sum and Norm of the row's stored run as
// distance.SetFamilyIDF accumulated them, for distance.SetBound to read
// back. They depend on the statistics, so they are kept under a
// generation: a row's tag word is gen<<32 with one bit per representation
// whose values were stored under gen, and Fit to another generation makes
// every value stale at once. Values under one generation are
// deterministic, so concurrent stores are benign: a store writes the
// values before the tag word, a reader reads the values only after
// finding its bit in the current generation, and two stores into one row
// may lose a bit, which leaves that value cold. Fit needs exclusive
// access; load and store are safe for concurrent use between Fits.
type SumCache struct {
	idf    [numPre][numTok]int8 // IDF position by representation, -1 when not weighed by IDF
	nidf   int
	stride int // words a row key takes: its tag word, then the Sum and Norm bits by IDF position
	gen    uint32
	words  []atomic.Uint64 // by row key, one line or two for the row's loads
}

// NewSumCache returns an empty cache for the rows of v's layout.
func (v *Vocab) NewSumCache() *SumCache {
	c := &SumCache{}
	for pi := range c.idf {
		for ti := range c.idf[pi] {
			c.idf[pi][ti] = -1
			if v.lay.rep[pi][ti] >= 0 && v.lay.need[pi][ti][weights.IDF] {
				c.idf[pi][ti] = int8(c.nidf)
				c.nidf++
			}
		}
	}
	c.stride = 1 + 2*c.nidf
	return c
}

// Fit moves c to generation gen, with room for row keys below rows: the
// first Fit sizes it to rows, a later one that needs more room to half
// as many again.
func (c *SumCache) Fit(rows int, gen uint32) {
	c.gen = gen
	if c.nidf == 0 || rows*c.stride <= len(c.words) {
		return
	}
	if c.words != nil {
		rows += rows/2 + 16
	}
	c.words = make([]atomic.Uint64, rows*c.stride)
}

// Bytes returns the bytes c's array takes.
func (c *SumCache) Bytes() int { return 8 * len(c.words) }

// load returns the Sum and Norm stored for row key's run at IDF position
// k under the current generation, if any.
//
//autofj:hotpath
func (c *SumCache) load(key, k int) (sum, norm float64, ok bool) {
	at := key * c.stride
	t := c.words[at].Load()
	if uint32(t>>32) != c.gen || t&(1<<k) == 0 {
		return 0, 0, false
	}
	at += 1 + 2*k
	return math.Float64frombits(c.words[at].Load()), math.Float64frombits(c.words[at+1].Load()), true
}

// store records the Sum and Norm of row key's run at IDF position k under
// the current generation.
//
//autofj:hotpath
func (c *SumCache) store(key, k int, sum, norm float64) {
	at := key * c.stride
	c.words[at+1+2*k].Store(math.Float64bits(sum))
	c.words[at+2+2*k].Store(math.Float64bits(norm))
	t := c.words[at].Load()
	if uint32(t>>32) != c.gen {
		t = uint64(c.gen) << 32
	}
	c.words[at].Store(t | 1<<k)
}
