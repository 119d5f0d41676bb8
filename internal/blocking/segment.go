package blocking

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"unicode"
	"unicode/utf8"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
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
//     lexicographic gram order: segments iterate query grams in lex order
//     with ascending postings, and delta rows store their gram ids in lex
//     order, so every float64 sum is performed in one fixed order.
//   - Global top-k selection runs one bounded heap over all segment and
//     delta candidates under the (score desc, dense id asc) total order;
//     the selected set is order-independent, and the final sort fixes the
//     output order.
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
// extracting record grams across up to parallelism goroutines.
func BuildSegment(keys []string, parallelism int) *Segment {
	docStrs := make([][]string, len(keys))
	parallel.Shard(len(keys), parallel.Workers(parallelism, len(keys)), func(_, start, end int) {
		for i := start; i < end; i++ {
			docStrs[i] = grams(keys[i])
		}
	})

	vocab := make(map[string]struct{})
	for _, gs := range docStrs {
		for _, g := range gs {
			vocab[g] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(vocab))
	for g := range vocab {
		sorted = append(sorted, g)
	}
	sort.Strings(sorted)

	gramID := make(map[string]int32, len(sorted))
	for id, g := range sorted {
		gramID[g] = int32(id)
	}
	s := &Segment{
		n:        len(keys),
		vocab:    sorted,
		postings: make([][]int32, len(sorted)),
		docGrams: make([][]int32, len(keys)),
	}
	for i, gs := range docStrs {
		ids := make([]int32, len(gs))
		for gi, g := range gs {
			id := gramID[g]
			ids[gi] = id
			s.postings[id] = append(s.postings[id], int32(i))
		}
		s.docGrams[i] = ids // ascending: gs is sorted and ids are lexicographic
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
// snapshot can never cause out-of-bounds access or wrong merge order:
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
// weights. rank/sortedIDs maintain the dictionary's lexicographic order
// incrementally so the query path can walk grams in lex order without
// sorting strings.
type TableIndex struct {
	segs       []*Segment
	seg2tab    [][]int32 // per segment: local gram id -> table gram id
	segDense   [][]int32 // per segment: local row id -> dense id, -1 dead
	tab2local  [][]int32 // per segment: table gram id (at attach time) -> local gram id, -1 absent
	delta      []deltaRow
	deltaDense []int32  // per delta slot: dense id, -1 dead
	refs       []Ref    // dense id -> location; len(refs) == live rows
	gramStr    []string // table gram id -> gram
	rank       []int32  // table gram id -> lexicographic rank
	sortedIDs  []int32  // lexicographic rank -> table gram id
	df         []int32  // table gram id -> live document count
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

// intern returns the table gram id of g, adding it to the dictionary (and
// splicing it into the lexicographic order) if new. O(dictionary) worst
// case per NEW gram; lookups of known grams are map hits.
func (tx *TableIndex) intern(g string) int32 {
	if id, ok := tx.gramID[g]; ok {
		return id
	}
	id := int32(len(tx.gramStr))
	tx.gramID[g] = id
	tx.gramStr = append(tx.gramStr, g)
	tx.df = append(tx.df, 0)
	pos := sort.Search(len(tx.sortedIDs), func(i int) bool { return tx.gramStr[tx.sortedIDs[i]] >= g })
	tx.sortedIDs = append(tx.sortedIDs, 0)
	copy(tx.sortedIDs[pos+1:], tx.sortedIDs[pos:])
	tx.sortedIDs[pos] = id
	tx.rank = append(tx.rank, 0)
	for i := pos; i < len(tx.sortedIDs); i++ {
		tx.rank[tx.sortedIDs[i]] = int32(i)
	}
	return id
}

// internVocab bulk-interns a segment vocabulary, rebuilding the
// lexicographic order with one merge instead of per-gram splices.
func (tx *TableIndex) internVocab(vocab []string) []int32 {
	seg2tab := make([]int32, len(vocab))
	var newIDs []int32 // in vocab (lex) order; all strings new to the dict
	for lg, g := range vocab {
		if id, ok := tx.gramID[g]; ok {
			seg2tab[lg] = id
			continue
		}
		id := int32(len(tx.gramStr))
		tx.gramID[g] = id
		tx.gramStr = append(tx.gramStr, g)
		tx.df = append(tx.df, 0)
		seg2tab[lg] = id
		newIDs = append(newIDs, id)
	}
	if len(newIDs) == 0 {
		return seg2tab
	}
	merged := make([]int32, 0, len(tx.sortedIDs)+len(newIDs))
	i, j := 0, 0
	for i < len(tx.sortedIDs) && j < len(newIDs) {
		if tx.gramStr[tx.sortedIDs[i]] < tx.gramStr[newIDs[j]] {
			merged = append(merged, tx.sortedIDs[i])
			i++
		} else {
			merged = append(merged, newIDs[j])
			j++
		}
	}
	merged = append(merged, tx.sortedIDs[i:]...)
	merged = append(merged, newIDs[j:]...)
	tx.sortedIDs = merged
	tx.rank = tx.rank[:0]
	tx.rank = append(tx.rank, make([]int32, len(tx.gramStr))...)
	for r, id := range tx.sortedIDs {
		tx.rank[id] = int32(r)
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
	tx.tab2local = append(tx.tab2local, tab2localFor(seg2tab, len(tx.gramStr)))
	tx.stored += seg.n
}

// tab2localFor inverts a segment's seg2tab mapping into a dense
// table-gram-id -> local-gram-id array for the merge hot path, replacing a
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
	gs := grams(key)
	ids := make([]int32, len(gs))
	for i, g := range gs {
		ids[i] = tx.intern(g) // gs is lex-sorted, so ids land in lex order
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
// unchanged — the rows merely move from the delta scan to the segment
// merge.
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
	tx.tab2local = append(tx.tab2local, tab2localFor(seg2tab, len(tx.gramStr)))

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
// the dense-id score accumulator, gram stamps/weights, and top-k heap.
// Arrays grow on demand, so one scratch serves a table across mutations
// and even wholesale index rebuilds. Not safe for concurrent use.
//
// scores is all zero between calls. A top-k touches almost every row of
// the table, so accumulating is a plain add with no first-touch check,
// and the selection walks the whole live prefix: a nonzero score marks a
// touched row (every gram weight log(1 + n/df) is positive), and the walk
// zeroes it again.
type TableScratch struct {
	scores    []float64 // by dense id; zero outside a call
	gramStamp []uint32  // by table gram id
	gramW     []float64 // by table gram id; query gram weight
	qranks    []int32   // the current query's gram ranks, ascending (lex order)
	heap      []Candidate
	buf       []byte  // normalized, padded query bytes
	starts    []int32 // byte offset of each rune in buf, plus end sentinel
	gen       uint32
}

// NewTableScratch allocates an empty scratch; arrays are sized lazily per
// query.
func NewTableScratch() *TableScratch { return &TableScratch{} }

// nextGen advances the gram generation stamp; on wraparound the stamps
// are cleared so stale generations can never alias.
//
//autofj:hotpath
func (sc *TableScratch) nextGen() uint32 {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.gramStamp)
		sc.gen = 1
	}
	return sc.gen
}

// fit grows the dense- and gram-indexed arrays to the current table shape.
// Fresh arrays start zeroed: scores as every call leaves them, and stamps
// that can never alias a live generation (gen >= 1 always).
//
//autofj:hotpath
func (sc *TableScratch) fit(nDense, nGrams int) {
	if len(sc.scores) < nDense {
		sc.scores = make([]float64, nDense)
	}
	if len(sc.gramStamp) < nGrams {
		sc.gramStamp = make([]uint32, nGrams)
		sc.gramW = make([]float64, nGrams)
	}
}

// queryGramRanks extracts the distinct live gram ranks of query, ascending
// (= lexicographic gram order), into sc.qranks. Grams absent from the
// dictionary or with zero live df carry zero weight and are skipped. The
// byte loop inlines normalize(): per-rune lower-casing with whitespace
// collapsed to single spaces, matching strings.Fields/ToLower semantics.
//
//autofj:hotpath
func (tx *TableIndex) queryGramRanks(sc *TableScratch, query string) []int32 {
	sc.fit(len(tx.refs), len(tx.gramStr))
	sc.qranks = sc.qranks[:0]
	sc.buf = append(sc.buf[:0], '#', '#')
	sc.starts = append(sc.starts[:0], 0, 1)
	content := false
	pendingSpace := false
	for _, r := range query {
		r = unicode.ToLower(r)
		if unicode.IsSpace(r) {
			pendingSpace = content
			continue
		}
		if pendingSpace {
			sc.starts = append(sc.starts, int32(len(sc.buf)))
			sc.buf = append(sc.buf, ' ')
			pendingSpace = false
		}
		sc.starts = append(sc.starts, int32(len(sc.buf)))
		sc.buf = utf8.AppendRune(sc.buf, r)
		content = true
	}
	if !content {
		return nil // QGrams("") is empty: padding alone yields no grams
	}
	sc.starts = append(sc.starts, int32(len(sc.buf)), int32(len(sc.buf)+1))
	sc.buf = append(sc.buf, '#', '#')
	sc.starts = append(sc.starts, int32(len(sc.buf)))
	gen := sc.nextGen()
	for i := 0; i+3 < len(sc.starts); i++ {
		id, ok := tx.gramID[string(sc.buf[sc.starts[i]:sc.starts[i+3]])]
		if !ok || tx.df[id] <= 0 || sc.gramStamp[id] == gen {
			continue
		}
		sc.gramStamp[id] = gen
		sc.qranks = append(sc.qranks, tx.rank[id])
	}
	slices.Sort(sc.qranks)
	return sc.qranks
}

// selfGramRanks fills sc.qranks with the ranks of dense row d's own grams,
// ascending: segment gram lists and delta gram lists are both stored in
// lexicographic order, and rank order preserves it.
//
//autofj:hotpath
func (tx *TableIndex) selfGramRanks(sc *TableScratch, d int) []int32 {
	sc.qranks = sc.qranks[:0]
	ref := tx.refs[d]
	if ref.Seg >= 0 {
		seg2tab := tx.seg2tab[ref.Seg]
		for _, lg := range tx.segs[ref.Seg].docGrams[ref.Local] {
			sc.qranks = append(sc.qranks, tx.rank[seg2tab[lg]])
		}
	} else {
		for _, g := range tx.delta[ref.Local].grams {
			sc.qranks = append(sc.qranks, tx.rank[g])
		}
	}
	return sc.qranks
}

// scoreSegments merges the per-segment posting lists of the query grams
// into the dense score accumulator: for each segment, query grams in lex
// order with postings ascending, so every candidate's weight sum runs in
// one fixed accumulation order.
//
// Live dense ids ascend with local ids, so a segment is free of tombstones
// exactly when its first row is live and its last row sits n-1 dense ids
// later. Such a segment maps local id i to dense id dense[0]+i without the
// dense[] load; a segment with tombstones keeps the lookup.
//
//autofj:hotpath
func (tx *TableIndex) scoreSegments(sc *TableScratch, qranks []int32) {
	for si := range tx.segs {
		seg := tx.segs[si]
		dense := tx.segDense[si]
		t2l := tx.tab2local[si]
		n := len(dense)
		live := n > 0 && dense[0] >= 0 && int(dense[n-1]-dense[0]) == n-1
		for _, r := range qranks {
			g := tx.sortedIDs[r]
			// Grams interned after the segment attached are out of range and
			// by construction cannot occur in the segment.
			if int(g) >= len(t2l) {
				continue
			}
			local := t2l[g]
			if local < 0 {
				continue
			}
			if live {
				addRun(seg.postings[local], sc.scores[dense[0]:], sc.gramW[g])
			} else {
				addMapped(seg.postings[local], dense, sc.scores, sc.gramW[g])
			}
		}
	}
}

// addRun adds weight w to the score of every local id on a posting list
// of a segment without tombstones; scores starts at the segment's first
// dense id. A first hit adds to zero, which is exact, so no first-touch
// check is needed.
//
// addRun and addMapped stay out of line: inlined into scoreSegments, the
// posting loop runs out of registers and spills its index and bounds to
// the stack on every element, which cost ~15% of BenchmarkBlock/sequential
// (2-core x86-64, go1.24).
//
//autofj:hotpath
//go:noinline
func addRun(post []int32, scores []float64, w float64) {
	for _, id := range post {
		scores[id] += w
	}
}

// addMapped is addRun for a segment with tombstones: dense maps each
// local id, and dead rows (-1) are skipped.
//
//autofj:hotpath
//go:noinline
func addMapped(post, dense []int32, scores []float64, w float64) {
	for _, id := range post {
		if d := dense[id]; d >= 0 {
			scores[d] += w
		}
	}
}

// scoreDelta brute-force scans the delta rows: each live row's stored
// gram list (lex order) is intersected with the stamped query grams, so
// shared-gram weights accumulate in the same order a segment uses. No
// segment scores a delta row, so the sum is stored, zero for a row that
// shares no gram.
//
//autofj:hotpath
func (tx *TableIndex) scoreDelta(sc *TableScratch, gen uint32) {
	for di := range tx.delta {
		d := tx.deltaDense[di]
		if d < 0 {
			continue
		}
		score := 0.0
		for _, g := range tx.delta[di].grams {
			if sc.gramStamp[g] == gen {
				score += sc.gramW[g]
			}
		}
		sc.scores[d] = score
	}
}

// appendTopK runs the merged query: weight the query grams, score segments
// and delta into one dense accumulator, then select the global top k under
// the (score desc, dense id asc) order, zeroing the accumulator as it
// goes. Dense row exclude (or none, when -1) is scored like any row and
// skipped by the selection.
//
//autofj:hotpath
func (tx *TableIndex) appendTopK(dst []Candidate, sc *TableScratch, qranks []int32, k, exclude int) []Candidate {
	if k <= 0 || len(tx.refs) == 0 || len(qranks) == 0 {
		return dst
	}
	sc.fit(len(tx.refs), len(tx.gramStr))
	gen := sc.nextGen()
	nf := float64(len(tx.refs))
	for _, r := range qranks {
		g := tx.sortedIDs[r]
		sc.gramStamp[g] = gen
		sc.gramW[g] = math.Log(1 + nf/float64(tx.df[g]))
	}
	tx.scoreSegments(sc, qranks)
	tx.scoreDelta(sc, gen)
	h := sc.heap[:0]
	scores := sc.scores[:len(tx.refs)]
	for id, s := range scores {
		if s == 0 {
			continue
		}
		scores[id] = 0
		if id == exclude {
			continue
		}
		c := Candidate{ID: int32(id), Score: s}
		if len(h) < k {
			h = append(h, c)
			heapUp(h, len(h)-1)
		} else if candWorse(h[0], c) {
			h[0] = c
			heapDown(h, 0)
		}
	}
	sc.heap = h
	base := len(dst)
	dst = append(dst, h...)
	slices.SortFunc(dst[base:], cmpCandidate)
	return dst
}

// AppendTopK appends up to k candidates (dense ids) for query to dst,
// reusing sc. Allocation-free after warmup when dst has capacity.
//
//autofj:hotpath
func (tx *TableIndex) AppendTopK(dst []Candidate, sc *TableScratch, query string, k int) []Candidate {
	return tx.appendTopK(dst, sc, tx.queryGramRanks(sc, query), k, -1)
}

// AppendTopKSelf appends the self-join candidates of dense row d
// (excluding d itself), reusing sc.
//
//autofj:hotpath
func (tx *TableIndex) AppendTopKSelf(dst []Candidate, sc *TableScratch, d, k int) []Candidate {
	return tx.appendTopK(dst, sc, tx.selfGramRanks(sc, d), k, d)
}
