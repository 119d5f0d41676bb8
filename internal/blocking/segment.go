package blocking

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"unicode/utf8"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// This file implements the blocking index: an ordered list of immutable
// compiled Segments plus a small mutable delta of uncompiled rows. Index
// (learning, the baselines) is one fully-live segment; core.Table adds
// delta rows, tombstones, and compacts. Candidates are the same for every
// layout of the same live rows in dense order:
//
//   - Gram IDF weights log(1 + n/df) are computed at query time from
//     globally maintained (n, df) over the live corpus.
//   - Each candidate's score accumulates its shared-gram weights in
//     lexicographic gram order: a row is scored from its own stored gram
//     list (segment and delta rows both keep theirs in lex order) against
//     weight tables that are +0.0 outside the query, so every float64 sum
//     is performed in one fixed order, whichever list reached the row.
//   - Global top-k selection runs one bounded heap over all segment and
//     delta candidates under the (score desc, dense id asc) total order;
//     the selected set is order-independent, and the final sort fixes the
//     output order. The scan visits posting lists rarest gram first and
//     stops only when no unreached row can reach the k-th score, so the
//     rows it never scores could not have been selected.
//
// Mutations (AddDelta / RemoveDense / Renumber / CompactDelta /
// AttachSegment) require external synchronization against queries;
// concurrent queries with private TableScratch instances are safe.

// Segment is one immutable compiled block of reference rows: an inverted
// 3-gram index without weights (weights depend on the whole table and are
// applied at query time).
type Segment struct {
	vocab    []string  // distinct grams, sorted ascending
	postings [][]int32 // by local gram id, local row ids ascending
	docGrams [][]int32 // by local row id, local gram ids ascending
	n        int
}

// BuildSegment compiles the inverted index of a block of blocking keys,
// extracting record grams across up to parallelism goroutines. Grams stay
// packed keys (gramKeys) until the vocabulary is sorted, and each distinct
// gram's string is made once. The gram lists and the posting lists are
// counted first and carved from one backing array each.
func BuildSegment(keys []string, parallelism int) *Segment {
	docKeys := make([][]uint64, len(keys))
	parallel.Shard(len(keys), parallel.Workers(parallelism, len(keys)), func(_, start, end int) {
		// A worker's rows share one backing array, sized for every gram of
		// its keys: a key of n runes pads to at most n+2 grams.
		size := 0
		for _, k := range keys[start:end] {
			size += utf8.RuneCountInString(k) + 2
		}
		all := make([]uint64, 0, size)
		var ks []uint64
		var buf []byte
		for i := start; i < end; i++ {
			ks, buf = gramKeys(ks, buf, keys[i])
			slices.Sort(ks)
			lo := len(all)
			all = append(all, slices.Compact(ks)...)
			docKeys[i] = all[lo:len(all):len(all)]
		}
	})
	gramID := make(map[uint64]int32)
	for _, ks := range docKeys {
		for _, k := range ks {
			gramID[k] = 0
		}
	}
	//autofj:nondet-ok slices.Sorted orders the keys; the iteration order cannot reach the output
	sorted := slices.Sorted(maps.Keys(gramID))
	s := &Segment{
		n:        len(keys),
		vocab:    make([]string, len(sorted)),
		postings: make([][]int32, len(sorted)),
		docGrams: make([][]int32, len(keys)),
	}
	for id, k := range sorted {
		gramID[k] = int32(id)
		s.vocab[id] = tokenize.GramString(k)
	}
	var total int
	for _, ks := range docKeys {
		total += len(ks)
	}
	df, ids := make([]int32, len(sorted)), make([]int32, 0, total)
	for i, ks := range docKeys {
		for _, k := range ks {
			ids = append(ids, gramID[k])
			df[gramID[k]]++
		}
		s.docGrams[i] = ids[len(ids)-len(ks) : len(ids) : len(ids)] // ascending: ids follow key order
	}
	post := make([]int32, total)
	for g, n := range df {
		s.postings[g], post = post[:0:n], post[n:]
	}
	for i, ids := range s.docGrams {
		for _, g := range ids {
			s.postings[g] = append(s.postings[g], int32(i))
		}
	}
	return s
}

// Len returns the number of rows the segment was compiled from (dead rows
// included; liveness lives in the owning TableIndex).
func (s *Segment) Len() int { return s.n }

// Parts exposes the segment's raw components for serialization. The
// returned slices are the segment's own storage; callers must not mutate
// them.
func (s *Segment) Parts() (vocab []string, postings, docGrams [][]int32) {
	return s.vocab, s.postings, s.docGrams
}

// NewSegmentFromParts reassembles a segment from serialized components,
// validating every invariant the query path relies on so a corrupted
// snapshot can never cause out-of-bounds access or a wrong summation order:
// vocab strictly ascending, postings ascending within [0, n), docGrams
// ascending within the vocab.
func NewSegmentFromParts(n int, vocab []string, postings, docGrams [][]int32) (*Segment, error) {
	if n < 0 {
		return nil, errors.New("blocking: segment has negative row count")
	}
	if len(postings) != len(vocab) {
		return nil, fmt.Errorf("blocking: segment has %d postings lists for %d grams", len(postings), len(vocab))
	}
	if len(docGrams) != n {
		return nil, fmt.Errorf("blocking: segment has %d gram lists for %d rows", len(docGrams), n)
	}
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			return nil, errors.New("blocking: segment vocabulary is not strictly ascending")
		}
	}
	// prev starts at -1 so id <= prev also rejects negative ids; these loops
	// run over every serialized element at snapshot load, so they stay lean.
	for g, post := range postings {
		prev := int32(-1)
		for _, id := range post {
			if id <= prev || int(id) >= n {
				return nil, fmt.Errorf("blocking: segment postings for gram %d are not ascending row ids", g)
			}
			prev = id
		}
	}
	nvocab := int32(len(vocab))
	for r, gs := range docGrams {
		prev := int32(-1)
		for _, id := range gs {
			if id <= prev || id >= nvocab {
				return nil, fmt.Errorf("blocking: segment gram list for row %d is not ascending gram ids", r)
			}
			prev = id
		}
	}
	return &Segment{
		n:        n,
		vocab:    vocab,
		postings: postings,
		docGrams: docGrams,
	}, nil
}

// Ref locates a dense row id inside the segmented layout: a (segment,
// local row) pair, or a delta slot when Seg is -1.
type Ref struct {
	Seg   int32
	Local int32
}

// deltaRow is one uncompiled reference row: its table gram ids in
// lexicographic gram order.
type deltaRow struct {
	grams []int32
	alive bool
}

// TableIndex is the segmented, mutable blocking index. Rows live in dense
// id order: each segment's live rows in local order (segments in attach
// order), followed by the live delta rows in insertion order — the same
// order core.Table stores the merged rows, so dense ids double as row
// indices into the merged table.
//
// Grams are interned into a table-wide dictionary that only grows; df
// tracks each gram's live document count and drives the query-time IDF
// weights.
type TableIndex struct {
	segs       []*Segment
	seg2tab    [][]int32 // per segment: local gram id -> table gram id
	segDense   [][]int32 // per segment: local row id -> dense id, -1 dead
	tab2local  [][]int32 // per segment: table gram id (at attach time) -> local gram id, -1 absent
	delta      []deltaRow
	deltaDense []int32 // per delta slot: dense id, -1 dead
	refs       []Ref   // dense id -> location; len(refs) == live rows
	df         []int32 // table gram id -> live document count
	gramID     map[string]int32
	stored     int // total stored rows, dead included
}

// NewTableIndex returns an empty segmented index.
func NewTableIndex() *TableIndex {
	return &TableIndex{gramID: make(map[string]int32)}
}

// BuildTableIndex compiles keys into an index of one segment with every
// row alive, extracting record grams across up to parallelism goroutines:
// dense id i is keys[i].
func BuildTableIndex(keys []string, parallelism int) *TableIndex {
	alive := make([]bool, len(keys))
	for i := range alive {
		alive[i] = true
	}
	tx := NewTableIndex()
	tx.AttachSegment(BuildSegment(keys, parallelism), alive, true)
	return tx
}

// Len returns the number of live rows (the dense id space).
func (tx *TableIndex) Len() int { return len(tx.refs) }

// Stored returns the total number of stored rows, tombstoned rows
// included — the denominator of the dead fraction compaction policies use.
func (tx *TableIndex) Stored() int { return tx.stored }

// Segments returns the number of attached segments.
func (tx *TableIndex) Segments() int { return len(tx.segs) }

// Segment returns segment i.
func (tx *TableIndex) Segment(i int) *Segment { return tx.segs[i] }

// SegmentAlive returns a fresh liveness bitmap for segment i.
func (tx *TableIndex) SegmentAlive(i int) []bool {
	dense := tx.segDense[i]
	alive := make([]bool, len(dense))
	for local, d := range dense {
		alive[local] = d >= 0
	}
	return alive
}

// DeltaRows returns the number of delta slots (dead ones included) — the
// compaction pressure.
func (tx *TableIndex) DeltaRows() int { return len(tx.delta) }

// DeltaAlive reports whether delta slot i is live.
func (tx *TableIndex) DeltaAlive(i int) bool { return tx.delta[i].alive }

// Ref locates dense row id d.
func (tx *TableIndex) Ref(d int) Ref { return tx.refs[d] }

// intern returns the table gram id of gram g, adding it to the
// dictionary if new: a gram's string is made only then.
func intern[G string | []byte](tx *TableIndex, g G) int32 {
	id, ok := tx.gramID[string(g)]
	if !ok {
		id = int32(len(tx.df))
		tx.gramID[string(g)] = id
		tx.df = append(tx.df, 0)
	}
	return id
}

// internVocab interns a segment vocabulary and returns its local ->
// table gram id map.
func (tx *TableIndex) internVocab(vocab []string) []int32 {
	seg2tab := make([]int32, len(vocab))
	for lg, g := range vocab {
		seg2tab[lg] = intern(tx, g)
	}
	return seg2tab
}

// AttachSegment appends a compiled segment with the given liveness bitmap.
// When countDF is true the live rows' grams are added to the global df
// counts (initial build and snapshot load); CompactDelta-style moves keep
// df untouched because the rows were already counted as delta rows.
//
// Segments must be attached before any delta rows exist — dense order is
// segments first, delta last.
func (tx *TableIndex) AttachSegment(seg *Segment, alive []bool, countDF bool) {
	if len(tx.delta) > 0 {
		panic("blocking: AttachSegment after delta rows would corrupt dense order")
	}
	if len(alive) != seg.n {
		panic("blocking: liveness bitmap does not match segment size")
	}
	seg2tab := tx.internVocab(seg.vocab)
	if countDF {
		allAlive := true
		for _, a := range alive {
			if !a {
				allAlive = false
				break
			}
		}
		if allAlive {
			// The common case (snapshot load, initial build): every posting
			// entry is live, so df comes from the list lengths without
			// walking the hundreds of thousands of entries.
			for lg := range seg.postings {
				tx.df[seg2tab[lg]] += int32(len(seg.postings[lg]))
			}
		} else {
			for lg := range seg.postings {
				cnt := int32(0)
				for _, id := range seg.postings[lg] {
					if alive[id] {
						cnt++
					}
				}
				tx.df[seg2tab[lg]] += cnt
			}
		}
	}
	dense := make([]int32, seg.n)
	si := int32(len(tx.segs))
	for local := 0; local < seg.n; local++ {
		if alive[local] {
			dense[local] = int32(len(tx.refs))
			tx.refs = append(tx.refs, Ref{Seg: si, Local: int32(local)})
		} else {
			dense[local] = -1
		}
	}
	tx.segs = append(tx.segs, seg)
	tx.seg2tab = append(tx.seg2tab, seg2tab)
	tx.segDense = append(tx.segDense, dense)
	tx.tab2local = append(tx.tab2local, tab2localFor(seg2tab, len(tx.df)))
	tx.stored += seg.n
}

// tab2localFor inverts a segment's seg2tab mapping into a dense
// table-gram-id -> local-gram-id array for the query scan, replacing a
// per-query-gram string hash with an index. Grams interned after this
// attach cannot appear in the segment, so the length snapshot is complete
// for it; queries check the bound before indexing.
func tab2localFor(seg2tab []int32, ngrams int) []int32 {
	t2l := make([]int32, ngrams)
	for i := range t2l {
		t2l[i] = -1
	}
	for local, tab := range seg2tab {
		t2l[tab] = int32(local)
	}
	return t2l
}

// AddDelta appends one live delta row for the given blocking key and
// returns its dense id.
func (tx *TableIndex) AddDelta(key string) int {
	keys, _ := gramKeys(make([]uint64, 0, 64), make([]byte, 0, 256), key)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	ids := make([]int32, len(keys))
	var g [3 * utf8.UTFMax]byte
	for i, k := range keys {
		ids[i] = intern(tx, tokenize.AppendGram(g[:0], k)) // keys ascend, so the list is in lex gram order
	}
	for _, id := range ids {
		tx.df[id]++
	}
	d := len(tx.refs)
	tx.delta = append(tx.delta, deltaRow{grams: ids, alive: true})
	tx.deltaDense = append(tx.deltaDense, int32(d))
	tx.refs = append(tx.refs, Ref{Seg: -1, Local: int32(len(tx.delta) - 1)})
	tx.stored++
	return d
}

// RemoveDense tombstones dense row d: its grams leave the df counts and it
// stops appearing in candidates immediately. Dense ids of OTHER rows keep
// their pre-removal values until Renumber is called; callers removing a
// batch mark every row first (against the old ids), then renumber once.
func (tx *TableIndex) RemoveDense(d int) {
	ref := tx.refs[d]
	if ref.Seg >= 0 {
		seg := tx.segs[ref.Seg]
		seg2tab := tx.seg2tab[ref.Seg]
		tx.segDense[ref.Seg][ref.Local] = -1
		for _, lg := range seg.docGrams[ref.Local] {
			tx.df[seg2tab[lg]]--
		}
	} else {
		row := &tx.delta[ref.Local]
		row.alive = false
		tx.deltaDense[ref.Local] = -1
		for _, g := range row.grams {
			tx.df[g]--
		}
	}
}

// Renumber rebuilds the dense id space after removals: live rows are
// re-numbered contiguously in storage order (segments in order, then
// delta), exactly the order a flat rebuild of the live rows would use.
func (tx *TableIndex) Renumber() {
	tx.refs = tx.refs[:0]
	for si := range tx.segs {
		dense := tx.segDense[si]
		for local := range dense {
			if dense[local] >= 0 {
				dense[local] = int32(len(tx.refs))
				tx.refs = append(tx.refs, Ref{Seg: int32(si), Local: int32(local)})
			}
		}
	}
	for di := range tx.deltaDense {
		if tx.deltaDense[di] >= 0 {
			tx.deltaDense[di] = int32(len(tx.refs))
			tx.refs = append(tx.refs, Ref{Seg: -1, Local: int32(di)})
		}
	}
}

// CompactDelta seals the first m delta slots into the given compiled
// segment (built from those slots' keys, possibly outside the table lock)
// and keeps the remaining slots as the new delta. Liveness is read from
// the CURRENT delta flags, so removals that landed between sealing and
// swap are honored. Dense ids, df counts, and query results are all
// unchanged — the rows merely move from the delta scan to the segment's
// posting lists.
func (tx *TableIndex) CompactDelta(m int, seg *Segment) {
	if m < 0 || m > len(tx.delta) || seg.n != m {
		panic("blocking: CompactDelta segment does not cover the sealed delta prefix")
	}
	seg2tab := tx.internVocab(seg.vocab)
	dense := make([]int32, m)
	si := int32(len(tx.segs))
	for i := 0; i < m; i++ {
		dense[i] = tx.deltaDense[i]
		if d := dense[i]; d >= 0 {
			tx.refs[d] = Ref{Seg: si, Local: int32(i)}
		}
	}
	tx.segs = append(tx.segs, seg)
	tx.seg2tab = append(tx.seg2tab, seg2tab)
	tx.segDense = append(tx.segDense, dense)
	tx.tab2local = append(tx.tab2local, tab2localFor(seg2tab, len(tx.df)))

	tail := tx.delta[m:]
	nd := make([]deltaRow, len(tail))
	copy(nd, tail)
	tx.delta = nd
	dtail := tx.deltaDense[m:]
	ndd := make([]int32, len(dtail))
	copy(ndd, dtail)
	tx.deltaDense = ndd
	for di, d := range tx.deltaDense {
		if d >= 0 {
			tx.refs[d] = Ref{Seg: -1, Local: int32(di)}
		}
	}
}

// TableScratch is the per-worker reusable query state of a TableIndex —
// the query's gram weights, gram and row stamps, the gram visit order and
// the top-k heap. Arrays grow on demand, so one scratch serves a table
// across mutations and even wholesale index rebuilds. Not safe for
// concurrent use.
//
// gramW and segW are all +0.0 between calls: a call sets the query grams'
// weights and clears them again on the way out, so a row is scored by
// summing the weights of its whole gram list, and a gram the query lacks
// adds +0.0, which changes no bit of a non-negative sum. rowStamp marks
// the rows a call has scored (or excluded) with the call's generation.
type TableScratch struct {
	gramW    []float64   // by table gram id; query gram weight
	segW     [][]float64 // per segment, by local gram id; query gram weight
	rowStamp []uint32    // by dense id
	qgrams   []int32     // the current query's table gram ids
	order    []uint64    // the query grams to visit, as df<<32 | table gram id
	rest     []float64   // rest[i]: summed weight of order[i:]
	fresh    []int32     // local ids a posting list reached first
	heap     []Candidate
	buf      []byte // gramKeys' buffers
	keys     []uint64
	// rowsScored and postingsRead count the rows exact-scored and the
	// posting entries read over the scratch's lifetime.
	rowsScored, postingsRead int64
	gen                      uint32
}

// NewTableScratch allocates an empty scratch; arrays are sized lazily per
// query.
func NewTableScratch() *TableScratch { return &TableScratch{} }

// nextGen advances the generation stamp; on wraparound the row stamps are
// cleared so stale generations can never alias.
//
//autofj:hotpath
func (sc *TableScratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.rowStamp)
		sc.gen = 1
	}
	return sc.gen
}

// fit grows the dense-, gram- and segment-indexed arrays to the current
// table shape. Fresh arrays start zeroed: weights as every call leaves
// them, and stamps that can never alias a live generation (gen >= 1
// always).
//
//autofj:hotpath
func (sc *TableScratch) fit(tx *TableIndex) {
	if len(sc.rowStamp) < len(tx.refs) {
		sc.rowStamp = make([]uint32, len(tx.refs))
	}
	if n := len(tx.df); len(sc.gramW) < n {
		sc.gramW = make([]float64, n)
	}
	if len(sc.segW) < len(tx.segs) {
		sc.segW = slices.Grow(sc.segW, len(tx.segs)-len(sc.segW))[:len(tx.segs)]
	}
	for si, seg := range tx.segs {
		if len(sc.segW[si]) < len(seg.vocab) {
			sc.segW[si] = make([]float64, len(seg.vocab))
		}
	}
}

// queryGrams extracts the live table gram ids of query into sc.qgrams,
// from its grams as a row's are made (gramKeys), a repeated gram repeated
// (weigh drops the repeats). Grams absent from the dictionary or with
// zero live df carry zero weight and are skipped.
//
//autofj:hotpath
func (tx *TableIndex) queryGrams(sc *TableScratch, query string) []int32 {
	sc.fit(tx)
	sc.qgrams = sc.qgrams[:0]
	sc.keys, sc.buf = gramKeys(sc.keys, sc.buf, query)
	var g [3 * utf8.UTFMax]byte
	for _, k := range sc.keys {
		if id, ok := tx.gramID[string(tokenize.AppendGram(g[:0], k))]; ok && tx.df[id] > 0 {
			sc.qgrams = append(sc.qgrams, id)
		}
	}
	return sc.qgrams
}

// selfGrams returns the table gram ids of dense row d's own grams: a
// delta row's stored list (read only), or a segment row's list mapped into
// sc.qgrams.
//
//autofj:hotpath
func (tx *TableIndex) selfGrams(sc *TableScratch, d int) []int32 {
	ref := tx.refs[d]
	if ref.Seg < 0 {
		return tx.delta[ref.Local].grams
	}
	seg2tab := tx.seg2tab[ref.Seg]
	sc.qgrams = sc.qgrams[:0]
	for _, lg := range tx.segs[ref.Seg].docGrams[ref.Local] {
		sc.qgrams = append(sc.qgrams, seg2tab[lg])
	}
	return sc.qgrams
}

// weigh sets the query grams' weights in gramW and segW (setWeight), and
// lays out the visit order of the distinct grams, rarest first (df
// ascending, ties by gram id), with rest as its suffix sums of weight.
//
//autofj:hotpath
func (tx *TableIndex) weigh(sc *TableScratch, qgrams []int32) {
	nf := float64(len(tx.refs))
	sc.order = sc.order[:0]
	for _, g := range qgrams {
		tx.setWeight(sc, g, math.Log(1+nf/float64(tx.df[g])))
		sc.order = append(sc.order, uint64(tx.df[g])<<32|uint64(g))
	}
	slices.Sort(sc.order)
	sc.order = slices.Compact(sc.order)
	n := len(sc.order)
	if cap(sc.rest) < n+1 {
		sc.rest = make([]float64, n+1)
	}
	sc.rest = sc.rest[:n+1]
	sc.rest[n] = 0
	for i := n - 1; i >= 0; i-- {
		sc.rest[i] = sc.rest[i+1] + sc.gramW[uint32(sc.order[i])]
	}
}

// setWeight sets table gram g's query weight in gramW and in the segW of
// each segment holding it.
//
//autofj:hotpath
func (tx *TableIndex) setWeight(sc *TableScratch, g int32, w float64) {
	sc.gramW[g] = w
	for si, t2l := range tx.tab2local {
		// Grams interned after the segment attached are out of range and
		// by construction cannot occur in the segment.
		if int(g) < len(t2l) && t2l[g] >= 0 {
			sc.segW[si][t2l[g]] = w
		}
	}
}

// addScores adds w over a row's gram list to s, in list order. The list is
// in lexicographic gram order and w is +0.0 outside the query's grams, so
// from s = 0 the sum is the row's shared-gram weights added in
// lexicographic order.
//
//autofj:hotpath
func addScores(s float64, grams []int32, w []float64) float64 {
	for _, g := range grams {
		s += w[g]
	}
	return s
}

// offer keeps c in the bounded top-k heap h under the (score desc, dense
// id asc) order.
//
//autofj:hotpath
func offer(h []Candidate, k int, c Candidate) []Candidate {
	if len(h) < k {
		h = append(h, c)
		heapUp(h, len(h)-1)
	} else if candWorse(h[0], c) {
		h[0] = c
		heapDown(h, 0)
	}
	return h
}

// appendTopK runs the query as one exact threshold scan: score every live
// delta row, then visit the query grams' posting lists rarest first, and
// score each live row the first time a list reaches it, exactly, from its
// own gram list. Before each list the scan stops once the heap holds k
// rows and the unvisited grams' summed weight, the most any unreached row
// can score, is below the k-th score. Dense row exclude (or none, when
// -1) is stamped as reached, so it is never scored.
//
//autofj:hotpath
func (tx *TableIndex) appendTopK(dst []Candidate, sc *TableScratch, qgrams []int32, k, exclude int) []Candidate {
	sc.fit(tx)
	if k <= 0 || len(tx.refs) == 0 || len(qgrams) == 0 {
		return dst
	}
	gen := sc.nextGen()
	tx.weigh(sc, qgrams)
	if exclude >= 0 {
		sc.rowStamp[exclude] = gen
	}
	h := sc.heap[:0]
	for di := range tx.delta {
		d := tx.deltaDense[di]
		if d < 0 || int(d) == exclude {
			continue
		}
		sc.rowsScored++
		if s := addScores(0, tx.delta[di].grams, sc.gramW); s != 0 {
			h = offer(h, k, Candidate{ID: d, Score: s})
		}
	}
	// An unreached row's computed score sums at most m = len(sc.order) of
	// the unvisited weights, and rest[i] sums all of them: each sum is
	// within a relative (m-1)·2^-53 of its exact value, and the exact
	// subset sum is at most the exact whole. Inflating rest by m·2^-50 covers both errors and
	// the rounding of the product, so an unreached row scores strictly below
	// the k-th score and can neither beat nor tie it. The product is
	// rounded before the sum, so no architecture fuses the two.
	slack := 1 + float64(float64(len(sc.order))*0x1p-50)
	for i, key := range sc.order {
		if len(h) == k && sc.rest[i]*slack < h[0].Score {
			break
		}
		g := int32(uint32(key))
		for si, t2l := range tx.tab2local {
			if int(g) >= len(t2l) || t2l[g] < 0 {
				continue
			}
			post := tx.segs[si].postings[t2l[g]]
			sc.postingsRead += int64(len(post))
			h = sc.reach(h, k, gen, post, tx.segDense[si], tx.segs[si].docGrams, sc.segW[si])
		}
	}
	sc.heap = h
	for _, key := range sc.order {
		tx.setWeight(sc, int32(uint32(key)), 0)
	}
	// Heap-sort in place: each pass moves the worst kept row to the end,
	// leaving h best first.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		heapDown(h[:n], 0)
	}
	dst = append(dst, h...)
	return dst
}

// reach scores each live row of one segment posting list that no earlier
// list reached (dense maps local ids, -1 dead) and offers it to the heap.
// The rows are scored four at a time: each row's sum is one chain of
// dependent adds, and four chains in flight hide each other's latency.
//
//autofj:hotpath
func (sc *TableScratch) reach(h []Candidate, k int, gen uint32, post, dense []int32, docGrams [][]int32, w []float64) []Candidate {
	fresh := sc.fresh[:0]
	for _, local := range post {
		d := dense[local]
		if d < 0 || sc.rowStamp[d] == gen {
			continue
		}
		sc.rowStamp[d] = gen
		fresh = append(fresh, local)
	}
	sc.fresh = fresh
	sc.rowsScored += int64(len(fresh))
	i := 0
	for ; i+4 <= len(fresh); i += 4 {
		a, b, c, d := fresh[i], fresh[i+1], fresh[i+2], fresh[i+3]
		s0, s1, s2, s3 := rowScore4(docGrams[a], docGrams[b], docGrams[c], docGrams[d], w)
		h = offer(h, k, Candidate{ID: dense[a], Score: s0})
		h = offer(h, k, Candidate{ID: dense[b], Score: s1})
		h = offer(h, k, Candidate{ID: dense[c], Score: s2})
		h = offer(h, k, Candidate{ID: dense[d], Score: s3})
	}
	for _, local := range fresh[i:] {
		h = offer(h, k, Candidate{ID: dense[local], Score: addScores(0, docGrams[local], w)})
	}
	return h
}

// rowScore4 scores four rows at once, each summed in its own list order.
//
//autofj:hotpath
func rowScore4(a, b, c, d []int32, w []float64) (sa, sb, sc, sd float64) {
	n := min(len(a), len(b), len(c), len(d))
	a2, b2, c2, d2 := a[:n], b[:n], c[:n], d[:n]
	for i := range a2 {
		sa += w[a2[i]]
		sb += w[b2[i]]
		sc += w[c2[i]]
		sd += w[d2[i]]
	}
	return addScores(sa, a[n:], w), addScores(sb, b[n:], w), addScores(sc, c[n:], w), addScores(sd, d[n:], w)
}

// AppendTopK appends up to k candidates (dense ids) for query to dst,
// reusing sc. Allocation-free after warmup when dst has capacity.
//
//autofj:hotpath
func (tx *TableIndex) AppendTopK(dst []Candidate, sc *TableScratch, query string, k int) []Candidate {
	return tx.appendTopK(dst, sc, tx.queryGrams(sc, query), k, -1)
}

// AppendTopKSelf appends the self-join candidates of dense row d
// (excluding d itself), reusing sc.
//
//autofj:hotpath
func (tx *TableIndex) AppendTopKSelf(dst []Candidate, sc *TableScratch, d, k int) []Candidate {
	return tx.appendTopK(dst, sc, tx.selfGrams(sc, d), k, d)
}
