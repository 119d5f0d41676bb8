// Package blocking implements the default blocking strategy of
// Auto-FuzzyJoin (§3.2): records are tokenized into character 3-grams,
// tokens are weighted by TF-IDF over the left (reference) table, the
// similarity of a query to a left record is the summed weight of their
// common tokens, and for each query only the top β·√|L| left records are
// kept as candidates.
//
// The same index answers both L–R blocking (candidates for right records)
// and L–L blocking (candidates for learning safe distances and negative
// rules), which is how Algorithm 1 uses it.
//
// There is one index: TableIndex (segment.go), an ordered list of
// immutable compiled Segments plus a mutable delta. Learning and the
// baselines query it through Index, a TableIndex with one fully-live
// segment, so left ids are dense ids; mutable serving tables (core.Table)
// query it directly. The query path is built for throughput: grams are
// interned to dense ids at index time, and each query visits its grams'
// posting lists rarest first, scores each row the first time a list
// reaches it exactly from the row's own gram list, keeps the rows that
// can still make the top-k in a buffer it selects from, and stops once the
// grams left unvisited weigh less than the k-th score, so most rows are
// never touched. Block shards queries across worker goroutines, each with
// its own TableScratch, so the hot loop is allocation-free after warmup
// and the output is identical for every parallelism level.
package blocking

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// DefaultBeta is the paper's default blocking factor β = 1.0
// (keep top √|L| candidates per query record).
const DefaultBeta = 1.0

// Index is the blocking index over a fixed left table: a TableIndex whose
// single segment holds every left record alive, so a candidate's dense id
// is its left id.
type Index struct {
	tx *TableIndex
}

// gramKeys returns, in keys' storage, the padded 3-grams of a record's
// blocking key as packed keys (tokenize.AppendGramKeys), whose ascending
// order is the grams' lexicographic order. The key is taken under L
// (textproc.AppendLower, in buf's storage): blocking is deliberately
// insensitive to the configurable pre-processing options because it must
// work before any configuration is chosen.
//
//autofj:hotpath
func gramKeys(keys []uint64, buf []byte, key string) ([]uint64, []byte) {
	buf = textproc.AppendLower(buf[:0], key)
	// A view of buf, read before buf is next written, so it needs no copy.
	return tokenize.AppendGramKeys(keys[:0], unsafe.String(unsafe.SliceData(buf), len(buf))), buf
}

// NewIndex indexes the left table sequentially.
func NewIndex(left []string) *Index { return NewIndexParallel(left, 1) }

// NewIndexParallel indexes the left table, extracting record grams across
// up to parallelism goroutines (0 means GOMAXPROCS).
func NewIndexParallel(left []string, parallelism int) *Index {
	return &Index{tx: BuildTableIndex(left, parallelism)}
}

// Candidate is a blocked candidate with its TF-IDF overlap score.
type Candidate struct {
	ID    int32
	Score float64
}

// NewScratch allocates query state for this index; its arrays are sized
// on first use. A scratch is not safe for concurrent use; give each
// goroutine its own.
func (ix *Index) NewScratch() *TableScratch { return NewTableScratch() }

// candWorse reports whether a ranks strictly worse than b in the
// (score descending, id ascending) candidate order.
//
//autofj:hotpath
func candWorse(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// candOrder orders candidates best first: score descending, id ascending.
func candOrder(a, b Candidate) int {
	switch {
	case candWorse(b, a):
		return -1
	case candWorse(a, b):
		return 1
	}
	return 0
}

// selectBest reorders c so that its k best candidates (0 < k <= len(c))
// come first, the k-th best at c[k-1]: a quickselect under candWorse
// with a median-of-three pivot. The order is total, so the k rows and the
// k-th are the same whatever order c arrives in.
//
//autofj:hotpath
func selectBest(c []Candidate, k int) {
	lo, hi := 0, len(c)-1
	for lo < hi {
		// Order c[lo], c[m], c[hi] best first, then partition around the
		// median, moved to hi.
		m := lo + (hi-lo)/2
		if candWorse(c[lo], c[m]) {
			c[lo], c[m] = c[m], c[lo]
		}
		if candWorse(c[m], c[hi]) {
			c[m], c[hi] = c[hi], c[m]
		}
		if candWorse(c[lo], c[m]) {
			c[lo], c[m] = c[m], c[lo]
		}
		c[m], c[hi] = c[hi], c[m]
		p, i := c[hi], lo
		for j := lo; j < hi; j++ {
			if candWorse(p, c[j]) {
				c[i], c[j] = c[j], c[i]
				i++
			}
		}
		c[i], c[hi] = c[hi], c[i]
		switch {
		case i < k-1:
			lo = i + 1
		case i > k-1:
			hi = i - 1
		default:
			return
		}
	}
}

// AppendTopK appends up to k candidates for query to dst, omitting left
// record exclude (or none, when -1), reusing sc. Allocation-free after
// warmup when dst has capacity.
//
//autofj:hotpath
func (ix *Index) AppendTopK(dst []Candidate, sc *TableScratch, query string, k, exclude int) []Candidate {
	return ix.tx.appendTopK(dst, sc, ix.tx.queryGrams(sc, query), k, exclude)
}

// AppendTopKSelf appends the L–L candidates for left record i to dst,
// excluding i itself, reusing sc.
//
//autofj:hotpath
func (ix *Index) AppendTopKSelf(dst []Candidate, sc *TableScratch, i, k int) []Candidate {
	return ix.tx.AppendTopKSelf(dst, sc, i, k)
}

// TopK returns the ids of up to k left records with the largest summed IDF
// weight of grams shared with the query, descending by score. exclude (an
// index into the left table, or -1) is omitted from the result; use it for
// L–L self-queries. Records sharing no gram with the query are never
// returned. This convenience form allocates a scratch per call; batch
// callers should hold one scratch per worker and use AppendTopK.
func (ix *Index) TopK(query string, k int, exclude int) []Candidate {
	return ix.AppendTopK(nil, ix.NewScratch(), query, k, exclude)
}

// TopKSelf returns the L–L candidates for left record i, excluding itself.
func (ix *Index) TopKSelf(i, k int) []Candidate {
	return ix.AppendTopKSelf(nil, ix.NewScratch(), i, k)
}

// K returns the paper's candidate-list size ⌈β·√|L|⌉, at least 1.
func K(nLeft int, beta float64) int {
	if nLeft <= 0 {
		return 1
	}
	k := int(math.Ceil(beta * math.Sqrt(float64(nLeft))))
	if k < 1 {
		k = 1
	}
	if k > nLeft {
		k = nLeft
	}
	return k
}

// Result bundles the blocked candidate lists for a join task.
type Result struct {
	// LR[j] lists candidate left ids for right record j.
	LR [][]Candidate
	// LL[i] lists candidate left ids for left record i (self excluded).
	LL [][]Candidate
	// K is the per-record candidate budget that was applied.
	K int
	// Index is the index Block built over the left table, the one
	// BuildTableIndex(left, …) builds; nothing else holds it.
	Index *TableIndex
}

// blockChunk is the work-stealing granularity of Block: small enough to
// balance skewed record lengths, large enough to amortize the atomic.
const blockChunk = 64

// arenaChunk is the minimum candidate-arena allocation, amortizing result
// storage across many queries.
const arenaChunk = 8192

// Block runs the default blocking for tables L and R with factor beta,
// fanning the per-record queries across up to parallelism goroutines
// (0 means GOMAXPROCS). The candidate lists are identical for every
// parallelism level. A self-join passes a nil right table and reads LL.
func Block(left, right []string, beta float64, parallelism int) *Result {
	ix := NewIndexParallel(left, parallelism)
	k := K(len(left), beta)
	res := &Result{
		LR:    make([][]Candidate, len(right)),
		LL:    make([][]Candidate, len(left)),
		K:     k,
		Index: ix.tx,
	}
	// One job space covers both query kinds: right records first, then the
	// left self-queries. Each job's list lands at a fixed index, so the
	// output is independent of scheduling.
	n := len(right) + len(left)
	// A worker per chunk, not per job: each worker's scratch grows to
	// O(|L|), so surplus workers beyond the chunk count would pay that for
	// no work.
	workers := parallel.Workers(parallelism, (n+blockChunk-1)/blockChunk)
	var next atomic.Int64
	worker := func() {
		sc := ix.NewScratch()
		var arena []Candidate
		for {
			c := int(next.Add(1) - 1)
			start := c * blockChunk
			if start >= n {
				return
			}
			end := min(start+blockChunk, n)
			for job := start; job < end; job++ {
				if cap(arena)-len(arena) < k {
					arena = make([]Candidate, 0, max(arenaChunk, k))
				}
				base := len(arena)
				if job < len(right) {
					arena = ix.AppendTopK(arena, sc, right[job], k, -1)
					res.LR[job] = arena[base:len(arena):len(arena)]
				} else {
					arena = ix.AppendTopKSelf(arena, sc, job-len(right), k)
					res.LL[job-len(right)] = arena[base:len(arena):len(arena)]
				}
			}
		}
	}
	if workers <= 1 {
		worker()
		return res
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	return res
}
