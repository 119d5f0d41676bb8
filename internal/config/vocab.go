package config

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// This file holds the id representation that learning and serving both
// score on. A mutable reference table (core.Table) keeps one Vocab per
// program column, and per storage region a Rows block whose token sets are
// integer slot runs into that Vocab. A Learn stores L ∪ R the same way, as
// the rows of one ProfileArena whose Vocab is closed over both
// (LearnProfiles, arena.go).
//
// Records reach a Vocab counted in integers (Counted, counts.go): a
// 3-gram representation interns packed uint64 gram keys and a word
// representation interns substrings of the processed string, so a token
// string is made only when a 3-gram first takes a slot. PrepareQuery
// resolves a query's packed grams against the same keys. One builder
// stores a batch of rows for a table and an arena alike: records are
// counted on workers a chunk at a time, the chunk's rows are appended in
// order with room for their slot runs, and each representation is
// interned into them on a worker of its own, record by record
// (AppendChunk).
//
// A candidate is scored without touching a token string: against the side
// its run of pairs shares, prepared once into a Side, straight from its
// stored slot run, a row weight being count × sw[slot] with sw the IDF
// column Settle keeps. Runs are in ascending token order and the weights,
// sums and norms have weighIDF's arithmetic, so every distance is
// bit-identical to Evaluator.Distances on Profiles built under the same
// statistics.
//
// A stored run is compact: a run whose counts are all 1 (nearly every
// one, since a token rarely repeats within a record) stores no counts,
// slots are 16 bits wide while a row block's slots fit, and a run's Sum
// and Norm are not stored but derived from its counts, which are whole
// numbers, so the derived bits are the counted ones.

// layout is the stored shape of one program column's rows under a space:
// the position of each stored processed string, embedding and counted
// (pre-processing, tokenization) representation within a row, -1 when
// the space does not need it.
type layout struct {
	need     [numPre][numTok][numWt]bool
	needProc [numPre]bool
	proc     [numPre]int8
	emb      [numPre]int8
	rep      [numPre][numTok]int8
	reps     []Rep         // counted representations in ascending (pre, tok) order
	forms    textproc.Mask // the options of proc
	nproc    int
	nemb     int
}

// newLayout returns the layout of the needs of c; the layout keeps a copy
// of them, and nothing of c's statistics.
func newLayout(c *Corpus) *layout {
	lay := &layout{need: c.needVec, needProc: c.needProc, reps: make([]Rep, 0, numPre*numTok)}
	for pi := 0; pi < numPre; pi++ {
		lay.proc[pi], lay.emb[pi] = -1, -1
		if c.needProc[pi] {
			lay.proc[pi] = int8(lay.nproc)
			lay.nproc++
			lay.forms |= textproc.Option(pi).Mask()
		}
		if c.needEmb[pi] {
			lay.emb[pi] = int8(lay.nemb)
			lay.nemb++
		}
		for ti := 0; ti < numTok; ti++ {
			lay.rep[pi][ti] = -1
			rep := Rep{Pre: textproc.Option(pi), Tok: tokenize.Option(ti)}
			if c.needProc[pi] && c.NeedCounts(rep.Pre, rep.Tok) {
				lay.rep[pi][ti] = int8(len(lay.reps))
				lay.reps = append(lay.reps, rep)
			}
		}
	}
	return lay
}

// Vocab is the token vocabulary of one program column of a mutable
// table, of the records of a ProfileArena, or of the records a Learn
// scores (LearnProfiles). For every counted
// representation, each distinct token the column's rows hold gets a
// stable integer slot, assigned in first-appearance order, with its
// document frequency over the live rows, its place in the lexical order
// of the representation's slots and, when the space weighs it by IDF,
// its IDF weight. The document count is shared by the column's
// representations.
//
// A slot whose df drops to 0 stays: it keeps its place, re-adding the token
// reuses it, and it is dropped only when the table is rebuilt from its
// rows (a save and load keeps only the tokens its stored rows hold). A
// vocabulary therefore grows with the distinct tokens ever added, not
// with the live rows.
//
// Mutators (AppendChunk, Intern, Count, Reserve, Settle) need exclusive
// access, and a batch of them ends with
// Settle; CountRecord, the prepares and the readers are safe
// for concurrent use between batches.
type Vocab struct {
	lay  *layout
	reps []repVocab // by layout position
	docs int        // live rows; the IDF table follows it at Settle
	idf  weights.IDFTable
	// groups holds, by layout position, the Evaluator groups that read a
	// representation: a masked prepare fills only the representations its
	// mask's groups read. Without the space (BuildArena) every group may
	// read every representation.
	groups [numPre * numTok]GroupMask
}

// repVocab is the vocabulary of one counted representation. A 3-gram
// representation interns by packed key (tokenize.AppendGramKeys) and a
// word representation by string; either way each slot's token string is
// kept once, for DF, Dictionary and ordering.
type repVocab struct {
	slot  map[string]int32 // words
	key   map[uint64]int32 // packed 3-grams
	toks  []string         // token by slot
	df    []int32          // live rows holding the slot
	sw    []float64        // IDF weight by slot under the live statistics, when the space weighs by IDF
	order []int32          // slots in ascending token order
	spare []int32          // Settle's merge buffer
	fresh []int32          // Settle's buffer of new slots
}

// NewVocab returns an empty vocabulary for one program column of a table
// serving space.
func NewVocab(space []JoinFunction) *Vocab {
	v := newVocab(newLayout(newCorpusNeeds(space)))
	clear(v.groups[:])
	for fi, bit := range groupBits(space) {
		if f := space[fi]; f.Dist.Class() == SetBased {
			v.groups[v.lay.rep[f.Pre][f.Tok]] |= bit
		}
	}
	return v
}

// newVocab returns an empty vocabulary of the layout lay.
func newVocab(lay *layout) *Vocab {
	v := &Vocab{lay: lay}
	v.reps = make([]repVocab, len(v.lay.reps))
	for r := range v.groups {
		v.groups[r] = AllGroups
	}
	return v
}

// NeedProc reports whether a stored row holds the processed string under
// pre.
func (v *Vocab) NeedProc(pre textproc.Option) bool { return v.lay.proc[pre] >= 0 }

// Forms returns the options whose processed strings a stored row holds.
func (v *Vocab) Forms() textproc.Mask { return v.lay.forms }

// NeedEmb reports whether a stored row holds the embedding under pre.
func (v *Vocab) NeedEmb(pre textproc.Option) bool { return v.lay.emb[pre] >= 0 }

// NeedCounts reports whether a stored row holds a slot run for (pre, tok).
func (v *Vocab) NeedCounts(pre textproc.Option, tok tokenize.Option) bool {
	return v.lay.rep[pre][tok] >= 0
}

// Docs returns the number of live rows the statistics count.
func (v *Vocab) Docs() int { return v.docs }

// Reserve makes room for n more slots in every representation, sizing an
// empty vocabulary's token index for them up front.
func (v *Vocab) Reserve(n int) {
	for r := range v.reps {
		rv := &v.reps[r]
		if len(rv.toks) == 0 {
			if v.lay.reps[r].Tok == tokenize.QGram3 {
				rv.key = make(map[uint64]int32, n)
			} else {
				rv.slot = make(map[string]int32, n)
			}
		}
		rv.toks = slices.Grow(rv.toks, n)
		rv.df = slices.Grow(rv.df, n)
	}
}

// Intern returns the slot of token under (pre, tok), assigning the next
// free slot to a token the vocabulary has not seen. A new slot has df 0,
// and no place in the order and no IDF weight until the next Settle. A
// 3-gram token must be exactly three runes.
func (v *Vocab) Intern(pre textproc.Option, tok tokenize.Option, token string) (int32, error) {
	r := int(v.lay.rep[pre][tok])
	if tok != tokenize.QGram3 {
		return v.internWord(r, token), nil
	}
	key, ok := tokenize.GramKey(token)
	if !ok {
		return 0, fmt.Errorf("config: 3-gram token %q is not three runes", token)
	}
	return v.internKey(r, key, token), nil
}

// internWord returns the slot of word token in word representation r.
func (v *Vocab) internWord(r int, token string) int32 {
	rv := &v.reps[r]
	if sl, ok := rv.slot[token]; ok {
		return sl
	}
	if rv.slot == nil {
		rv.slot = make(map[string]int32)
	}
	sl := rv.newSlot(token)
	rv.slot[token] = sl
	return sl
}

// internKey returns the slot of the packed 3-gram key in 3-gram
// representation r; token is its string, or "" to unpack it when the slot
// is new.
func (v *Vocab) internKey(r int, key uint64, token string) int32 {
	rv := &v.reps[r]
	if sl, ok := rv.key[key]; ok {
		return sl
	}
	if rv.key == nil {
		rv.key = make(map[uint64]int32)
	}
	if token == "" {
		token = tokenize.GramString(key)
	}
	sl := rv.newSlot(token)
	rv.key[key] = sl
	return sl
}

func (rv *repVocab) newSlot(token string) int32 {
	sl := int32(len(rv.toks))
	rv.toks = append(rv.toks, token)
	rv.df = append(rv.df, 0)
	return sl
}

// intern returns the slot of the counted run's k-th token in
// representation r.
func (v *Vocab) intern(r int, run *tokenRun, k int) int32 {
	if v.lay.reps[r].Tok == tokenize.QGram3 {
		return v.internKey(r, run.keys[k], "")
	}
	return v.internWord(r, run.words[k])
}

// internRun interns the tokens of run, representation r of a counted
// record, into slots, counting each into the df of its slot. It touches
// representation r alone, so distinct representations may be interned
// concurrently.
func (v *Vocab) internRun(r int, run *tokenRun, slots []int32) {
	for k := range slots {
		sl := v.intern(r, run, k)
		v.reps[r].df[sl]++
		slots[k] = sl
	}
}

// AppendChunk stores the counted records recs (see CountRecord) as the
// next rows of rows, in order, interning their tokens, and counts the
// rows live. Each representation is interned by one of up to parallelism
// workers (0 means GOMAXPROCS), record by record in order, so slots are
// assigned in first-appearance order at every parallelism, into *slots,
// one flat buffer of the chunk's runs by (record, representation) that
// the caller reuses across chunks; the rows are then stored in order, in
// storage reserved once for the chunk.
func (v *Vocab) AppendChunk(rows *Rows, recs []Counted, slots *[]int32, parallelism int) {
	tokens, counted := 0, 0
	for i := range recs {
		for r := range v.reps {
			run := &recs[i].runs[r]
			run.at = tokens
			tokens += len(run.counts)
			if !allOnes(run.counts) {
				counted += len(run.counts)
			}
		}
	}
	buf := slices.Grow((*slots)[:0], tokens)[:tokens]
	*slots = buf
	nrep := len(v.reps)
	// One worker interns inline: a sequential caller (Table.Add) builds
	// no closure.
	if w := parallel.Workers(parallelism, nrep); w == 1 {
		v.internChunk(recs, buf, 0, nrep)
	} else {
		parallel.Shard(nrep, w, func(start, end int) { v.internChunk(recs, buf, start, end) })
	}
	rows.Reserve(tokens, counted, len(recs))
	for i := range recs {
		v.appendCounted(rows, &recs[i], buf)
	}
	v.docs += len(recs)
}

// internChunk interns representations [start, end) of the counted records
// recs into buf (see AppendChunk), record by record in order.
func (v *Vocab) internChunk(recs []Counted, buf []int32, start, end int) {
	for r := start; r < end; r++ {
		for i := range recs {
			run := &recs[i].runs[r]
			v.internRun(r, run, buf[run.at:run.at+len(run.counts)])
		}
	}
}

// appendCounted stores the counted record c, interned into buf, as the
// next row of rows.
func (v *Vocab) appendCounted(rows *Rows, c *Counted, buf []int32) {
	var r Row
	for pi := 0; pi < numPre; pi++ {
		if v.lay.proc[pi] >= 0 {
			r.Proc[pi] = c.proc[pi]
		}
		if e := v.lay.emb[pi]; e >= 0 {
			r.Emb[pi] = embed.Lanes{Wide: c.emb[e][:]}
		}
	}
	for ri, rep := range v.lay.reps {
		run := &c.runs[ri]
		r.Slots[rep.Pre][rep.Tok], r.Counts[rep.Pre][rep.Tok] = buf[run.at:run.at+len(run.counts)], run.counts
	}
	rows.Append(&r)
}

// Count adds delta to the document count and to the df of every slot
// that row i of s holds: +1 when the row goes live, -1 when it is removed.
func (v *Vocab) Count(s *Rows, i int, delta int32) {
	nrep := len(v.reps)
	for r := range v.reps {
		df := v.reps[r].df
		at := i*nrep + r
		lo, hi := s.off[at], s.off[at+1]
		if s.wide {
			addDF(df, s.slots32[lo:hi], delta)
		} else {
			addDF(df, s.slots16[lo:hi], delta)
		}
	}
	v.docs += int(delta)
}

// addDF adds delta to the df of every slot of a run.
func addDF[S distance.Slot](df []int32, slots []S, delta int32) {
	for _, sl := range slots {
		df[sl] += delta
	}
}

// Settle ends a batch of mutations. The slots interned since the last
// Settle are sorted and merged into the sorted slot order, the IDF table
// moves to the new document count, and one pass refreshes every slot's
// IDF weight: O(V) for a vocabulary of V slots, however many rows the
// table holds.
func (v *Vocab) Settle() {
	for r := range v.reps {
		v.reps[r].rerank()
	}
	if v.idf.Docs() != v.docs {
		v.idf.SetDocs(v.docs)
	}
	for r := range v.reps {
		v.weighSlots(r)
	}
}

// weighSlots sets the IDF weight of every slot of representation r under
// the current statistics, when the space weighs r by IDF.
func (v *Vocab) weighSlots(r int) {
	rep, rv := v.lay.reps[r], &v.reps[r]
	if !v.lay.need[rep.Pre][rep.Tok][weights.IDF] {
		return
	}
	rv.sw = slices.Grow(rv.sw[:0], len(rv.df))[:len(rv.df)]
	for sl, df := range rv.df {
		rv.sw[sl] = v.idf.Weight(int(df))
	}
}

func (rv *repVocab) rerank() {
	old := len(rv.order)
	if old == len(rv.toks) {
		return
	}
	toks := rv.toks
	fresh := slices.Grow(rv.fresh[:0], len(toks)-old)
	for sl := old; sl < len(toks); sl++ {
		fresh = append(fresh, int32(sl))
	}
	rv.fresh = fresh
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(toks[a], toks[b]) })
	merged := slices.Grow(rv.spare[:0], len(toks))
	i := 0
	for _, f := range fresh {
		rest := rv.order[i:]
		j := i + sort.Search(len(rest), func(k int) bool { return toks[rest[k]] > toks[f] })
		merged = append(append(merged, rv.order[i:j]...), f)
		i = j
	}
	merged = append(merged, rv.order[i:]...)
	rv.order, rv.spare = merged, rv.order
}

// DF yields, in ascending token order, every token of (pre, tok) that a
// live row holds, with its document frequency.
func (v *Vocab) DF(pre textproc.Option, tok tokenize.Option) iter.Seq2[string, int] {
	return func(yield func(string, int) bool) {
		rv := &v.reps[v.lay.rep[pre][tok]]
		for _, sl := range rv.order {
			if df := rv.df[sl]; df > 0 && !yield(rv.toks[sl], int(df)) {
				return
			}
		}
	}
}

// SlotIndex holds one int32 list per (pre-processing, tokenization)
// representation: the map between a Vocab's slots and a column
// dictionary's positions, in either direction.
type SlotIndex [numPre][numTok][]int32

// Dictionary returns the sorted distinct tokens that the rows of s hold
// (live or not) over every counted representation, and by (pre, tok) each
// slot's index into the dictionary (-1 for slots s does not hold).
func (v *Vocab) Dictionary(s *Rows) (dict []string, index SlotIndex) {
	nrep := len(v.reps)
	for r, rep := range v.lay.reps {
		idx := make([]int32, len(v.reps[r].toks))
		for sl := range idx {
			idx[sl] = -1
		}
		for at := r; at < s.n*nrep; at += nrep {
			lo, hi := s.off[at], s.off[at+1]
			if s.wide {
				dict = appendUnmarked(dict, idx, s.slots32[lo:hi], v.reps[r].toks)
			} else {
				dict = appendUnmarked(dict, idx, s.slots16[lo:hi], v.reps[r].toks)
			}
		}
		index[rep.Pre][rep.Tok] = idx
	}
	sort.Strings(dict)
	dict = slices.Compact(dict)
	for r, rep := range v.lay.reps {
		idx := index[rep.Pre][rep.Tok]
		for sl, x := range idx {
			if x == 0 {
				idx[sl] = int32(sort.SearchStrings(dict, v.reps[r].toks[sl]))
			}
		}
	}
	return dict, index
}

// appendUnmarked appends to dict the token of every slot of a run that idx
// does not mark yet (-1), and marks it 0.
func appendUnmarked[S distance.Slot](dict []string, idx []int32, slots []S, toks []string) []string {
	for _, sl := range slots {
		if idx[sl] < 0 {
			idx[sl] = 0
			dict = append(dict, toks[sl])
		}
	}
	return dict
}

// Row is one stored row in exploded form, indexed like a Profile: the
// input of Rows.Append and the output of Rows.Get. Only the parts the
// layout stores are read or written; Slots index the column's Vocab,
// in ascending token order, with one count each, or no counts when every
// count is 1, as Get hands over such a run (RunSums gives the count
// vector's Sum and Norm). Append stores each embedding in the narrowest
// lanes its counts fit and computes its norm from them, whatever the
// input's lanes and Norm.
type Row struct {
	Proc   [numPre]string
	Emb    [numPre]embed.Lanes
	Slots  [numPre][numTok][]int32
	Counts [numPre][numTok][]uint32
}

// Rows is the columnar at-rest storage of a block of one program
// column's rows: processed strings and their shapes, embeddings as integer
// lanes with their squared norms, and per counted representation a slot
// run with its integer counts. A row's parts sit at fixed positions (see
// layout), so a row is a handful of slices into a few flat arrays. An
// embedding whose counts all fit int8 takes embed.Dim bytes; one that
// does not keeps zero narrow lanes and its counts in wide, found by its
// position in wideAt. Slots are uint16 while every slot the block holds
// fits, and the block widens them all to int32 when one does not. A run
// whose counts are all 1 stores none. Rows only grow, and stored rows
// never change.
type Rows struct {
	lay     *layout
	n       int
	want    int              // the rows the storage was made for (see Reserve)
	proc    []string         // n × nproc
	shapes  []distance.Shape // of proc, for distance.CharBound
	emb     []int8           // n × nemb × embed.Dim narrow lanes
	norms   []int64          // n × nemb squared norms
	wideEmb []int32          // embed.Dim lanes per embedding that does not fit int8
	wideAt  []int32          // ascending position (row × nemb + e) of each wide embedding
	off     []int32          // n × nrep + 1 run offsets into the slots
	coff    []int32          // n × nrep + 1 run offsets into counts; equal neighbours mark an all-ones run
	wide    bool             // the slots are in slots32, not slots16
	slots16 []uint16
	slots32 []int32
	counts  []uint32 // the counts of the runs that are not all ones
}

// NewRows returns empty row storage in v's layout with room for n rows'
// strings, shapes, embeddings and run offsets; slots and counts are
// reserved as rows arrive (see Reserve).
func (v *Vocab) NewRows(n int) Rows {
	lay := v.lay
	nrep := len(lay.reps)
	return Rows{
		lay:    lay,
		want:   n,
		proc:   make([]string, 0, n*lay.nproc),
		shapes: make([]distance.Shape, 0, n*lay.nproc),
		emb:    make([]int8, 0, n*lay.nemb*embed.Dim),
		norms:  make([]int64, 0, n*lay.nemb),
		off:    make([]int32, 0, n*nrep+1),
		coff:   make([]int32, 0, n*nrep+1),
	}
}

// Len returns the number of stored rows.
func (s *Rows) Len() int { return s.n }

// Tokens returns the number of slot entries the rows hold in all.
func (s *Rows) Tokens() int { return len(s.slots16) + len(s.slots32) }

// TokenCap returns the number of slot entries the rows have room for
// without growing (see Reserve).
func (s *Rows) TokenCap() int { return cap(s.slots16) + cap(s.slots32) }

// RunBytes returns the bytes the rows' slot-run arrays take by capacity:
// the run offsets, the slots and the counts.
func (s *Rows) RunBytes() int {
	return 4*(cap(s.off)+cap(s.coff)+cap(s.slots32)+cap(s.counts)) + 2*cap(s.slots16)
}

// Append stores r as the next row.
func (s *Rows) Append(r *Row) {
	lay := s.lay
	for pi := 0; pi < numPre; pi++ {
		if lay.proc[pi] >= 0 {
			s.proc = append(s.proc, r.Proc[pi])
			s.shapes = append(s.shapes, distance.ShapeOf(r.Proc[pi]))
		}
	}
	for pi := 0; pi < numPre; pi++ {
		if lay.emb[pi] >= 0 {
			s.appendEmb(&r.Emb[pi])
		}
	}
	s.startRow()
	var ones [numPre * numTok]bool
	tokens, counted := 0, 0
	for ri, rep := range lay.reps {
		counts := r.Counts[rep.Pre][rep.Tok]
		tokens += len(r.Slots[rep.Pre][rep.Tok])
		if ones[ri] = allOnes(counts); !ones[ri] {
			counted += len(counts)
		}
	}
	s.Reserve(tokens, counted, 1)
	for ri, rep := range lay.reps {
		appendSlots(s, r.Slots[rep.Pre][rep.Tok])
		if !ones[ri] {
			s.counts = append(s.counts, r.Counts[rep.Pre][rep.Tok]...)
		}
		s.endRun()
	}
	s.n++
}

// startRow opens the run offsets before the first row is appended.
func (s *Rows) startRow() {
	if len(s.off) == 0 {
		s.off, s.coff = append(s.off, 0), append(s.coff, 0)
	}
}

// endRun closes the run whose slots and counts were just appended.
func (s *Rows) endRun() {
	s.off = append(s.off, int32(s.Tokens()))
	s.coff = append(s.coff, int32(len(s.counts)))
}

// appendSlots appends a run's slots to s, widening s's slots first when
// one does not fit in 16 bits.
func appendSlots[S distance.Slot](s *Rows, slots []S) {
	if !s.wide {
		lo := len(s.slots16)
		s.slots16 = slices.Grow(s.slots16, len(slots))[:lo+len(slots)]
		for k, sl := range slots {
			if int64(sl) > math.MaxUint16 {
				s.slots16 = s.slots16[:lo]
				s.widen()
				break
			}
			s.slots16[lo+k] = uint16(sl)
		}
	}
	if s.wide {
		s.slots32 = appendConverted(s.slots32, slots)
	}
}

// widen moves the slots to int32, keeping their capacity.
func (s *Rows) widen() {
	s.slots32 = appendConverted(make([]int32, 0, cap(s.slots16)), s.slots16)
	s.slots16, s.wide = nil, true
}

// appendConverted appends src to dst, converting each slot.
func appendConverted[D, S distance.Slot](dst []D, src []S) []D {
	lo := len(dst)
	dst = slices.Grow(dst, len(src))[:lo+len(src)]
	for k, x := range src {
		dst[lo+k] = D(x)
	}
	return dst
}

// appendEmb stores the next embedding in int8 lanes when its counts fit,
// and in wide lanes otherwise.
func (s *Rows) appendEmb(l *embed.Lanes) {
	lo := len(s.emb)
	s.emb = slices.Grow(s.emb, embed.Dim)[:lo+embed.Dim]
	lanes := s.emb[lo:]
	switch {
	case l.Narrow != nil:
		copy(lanes, l.Narrow[:embed.Dim])
	case !embed.Narrow(lanes, l.Wide):
		clear(lanes)
		s.wideAt = append(s.wideAt, int32(len(s.norms)))
		s.wideEmb = append(s.wideEmb, l.Wide[:embed.Dim]...)
		s.norms = append(s.norms, embed.NormOf(l.Wide))
		return
	}
	s.norms = append(s.norms, embed.NormOf(lanes))
}

// lanes returns the embedding of row i at layout position e. It aliases
// the storage.
//
//autofj:hotpath
func (s *Rows) lanes(i, e int) embed.Lanes {
	at := i*s.lay.nemb + e
	if len(s.wideAt) > 0 {
		if k, ok := slices.BinarySearch(s.wideAt, int32(at)); ok {
			lo := k * embed.Dim
			return embed.Lanes{Wide: s.wideEmb[lo : lo+embed.Dim : lo+embed.Dim], Norm: s.norms[at]}
		}
	}
	lo := at * embed.Dim
	return embed.Lanes{Narrow: s.emb[lo : lo+embed.Dim : lo+embed.Dim], Norm: s.norms[at]}
}

// procAt returns row i's processed string under pre, which the layout
// stores.
//
//autofj:hotpath
func (s *Rows) procAt(i int, pre textproc.Option) string {
	return s.proc[i*s.lay.nproc+int(s.lay.proc[pre])]
}

// runCounts returns the counts of run at (row × nrep + layout position),
// or nil when they are all 1. It aliases the storage.
//
//autofj:hotpath
func (s *Rows) runCounts(at int) []uint32 {
	lo, hi := s.coff[at], s.coff[at+1]
	if lo == hi {
		return nil
	}
	return s.counts[lo:hi:hi]
}

// Get fills r with row i: its strings and embeddings alias the storage,
// and its slot runs and counts are copied into r's buffers, which it
// reuses. A run whose counts are all 1 gets none.
func (s *Rows) Get(i int, r *Row) {
	lay := s.lay
	rec := s.record(i)
	r.Proc, r.Emb = rec.proc, rec.emb
	nrep := len(lay.reps)
	for ri, rep := range lay.reps {
		at := i*nrep + ri
		lo, hi := s.off[at], s.off[at+1]
		slots := r.Slots[rep.Pre][rep.Tok][:0]
		if s.wide {
			slots = append(slots, s.slots32[lo:hi]...)
		} else {
			slots = appendConverted(slots, s.slots16[lo:hi])
		}
		r.Slots[rep.Pre][rep.Tok] = slots
		r.Counts[rep.Pre][rep.Tok] = append(r.Counts[rep.Pre][rep.Tok][:0], s.runCounts(at)...)
	}
}

// AppendRow stores a copy of row i of src, which has the same layout.
func (s *Rows) AppendRow(src *Rows, i int) {
	lay := s.lay
	np, nrep := lay.nproc, len(lay.reps)
	s.proc = append(s.proc, src.proc[i*np:(i+1)*np]...)
	s.shapes = append(s.shapes, src.shapes[i*np:(i+1)*np]...)
	for e := 0; e < lay.nemb; e++ {
		l := src.lanes(i, e)
		s.appendEmb(&l)
	}
	s.startRow()
	first := i * nrep
	s.Reserve(int(src.off[first+nrep]-src.off[first]), int(src.coff[first+nrep]-src.coff[first]), 1)
	for at := first; at < first+nrep; at++ {
		lo, hi := src.off[at], src.off[at+1]
		if src.wide {
			appendSlots(s, src.slots32[lo:hi])
		} else {
			appendSlots(s, src.slots16[lo:hi])
		}
		s.counts = append(s.counts, src.runCounts(at)...)
		s.endRun()
	}
	s.n++
}

// Prefix returns a frozen view of the first m rows (capacity-capped, so
// later appends to s can never write into it).
func (s *Rows) Prefix(m int) Rows {
	lay := s.lay
	if m == 0 {
		return Rows{lay: lay}
	}
	np, ne, nr := m*lay.nproc, m*lay.nemb, m*len(lay.reps)
	end, cend := s.off[nr], s.coff[nr]
	nw, _ := slices.BinarySearch(s.wideAt, int32(ne))
	p := Rows{
		lay:     lay,
		n:       m,
		proc:    s.proc[:np:np],
		shapes:  s.shapes[:np:np],
		emb:     s.emb[: ne*embed.Dim : ne*embed.Dim],
		norms:   s.norms[:ne:ne],
		wideEmb: s.wideEmb[: nw*embed.Dim : nw*embed.Dim],
		wideAt:  s.wideAt[:nw:nw],
		off:     s.off[: nr+1 : nr+1],
		coff:    s.coff[: nr+1 : nr+1],
		wide:    s.wide,
		counts:  s.counts[:cend:cend],
	}
	if s.wide {
		p.slots32 = s.slots32[:end:end]
	} else {
		p.slots16 = s.slots16[:end:end]
	}
	return p
}

// Tail returns fresh storage holding copies of the rows from m on.
func (s *Rows) Tail(m int) Rows {
	t := Rows{lay: s.lay}
	for i := m; i < s.n; i++ {
		t.AppendRow(s, i)
	}
	return t
}

// Record is the string side of one record as an Evaluator reads it: its
// processed strings and embeddings.
type Record struct {
	proc [numPre]string
	emb  [numPre]embed.Lanes
}

// record returns the strings and embeddings of row i. They alias the
// storage.
func (s *Rows) record(i int) Record {
	var r Record
	lay := s.lay
	for pi := 0; pi < numPre; pi++ {
		if lay.proc[pi] >= 0 {
			r.proc[pi] = s.procAt(i, textproc.Option(pi))
		}
		if e := lay.emb[pi]; e >= 0 {
			r.emb[pi] = s.lanes(i, int(e))
		}
	}
	return r
}

// Side holds one record prepared as the fixed side of a run of pairs: per
// set representation and weighting, its weights by token id. Tables are
// sized to the vocabulary when prepared and cleared by Release through
// the ids they set, so a Side holds numbers only and may be pooled.
// Release it before the next prepare.
type Side struct {
	set   [numPre][numTok][numWt]distance.Prepared
	held  [numPre][numTok][]int32 // the ids set in the representation's tables
	slots []int32                 // PrepareQuery's resolved slots
}

// Fixed is a prepared record: its strings, their shapes and its
// embeddings, its tables, the vocabulary of the rows it is scored against,
// and whether it is every pair's reference side l. It is valid until
// Release.
type Fixed struct {
	rec   Record
	shape [numPre]distance.Shape
	side  *Side
	v     *Vocab
	l     bool
}

// fixed returns rec prepared into sd.
//
//autofj:hotpath
func (v *Vocab) fixed(rec Record, sd *Side, l bool) Fixed {
	f := Fixed{rec: rec, side: sd, v: v, l: l}
	for pi, s := range rec.proc {
		f.shape[pi] = distance.ShapeOf(s)
	}
	return f
}

// sized returns p with its table sized for ids below n. A released or
// grown table is all zeros.
func sized(p *distance.Prepared, n int) *distance.Prepared {
	if len(p.W) < n {
		p.W = make([]float64, n+n/4)
	}
	return p
}

// Release clears what the last prepare set, through the ids it set (a
// query's -1 set none).
//
//autofj:hotpath
func (sd *Side) Release() {
	for pi := range sd.held {
		for ti, ids := range sd.held[pi] {
			for wi := range sd.set[pi][ti] {
				p := &sd.set[pi][ti][wi]
				for _, id := range ids {
					if id >= 0 && p.N > 0 {
						p.W[id] = 0
					}
				}
				p.N = 0
			}
			sd.held[pi][ti] = ids[:0]
		}
	}
}

// PrepareQuery counts query record s and prepares it into sd under the
// current statistics, as the query side r of every pair, for the
// representations mask's groups read. proc is CountRecord's. A token no
// row has held weighs as df 0, as weights.Stats weighs an unseen token: it
// is in no table but counts toward Sum, Norm and N.
func (v *Vocab) PrepareQuery(sd *Side, s string, proc *textproc.Forms, mask GroupMask) Fixed {
	var q Counted
	v.CountRecord(&q, s, proc)
	for r, rep := range v.lay.reps {
		if mask&v.groups[r] == 0 {
			continue
		}
		run, rv := &q.runs[r], &v.reps[r]
		slots := slices.Grow(sd.slots[:0], len(run.counts))[:len(run.counts)]
		for k := range slots {
			var ok bool
			if rep.Tok == tokenize.QGram3 {
				slots[k], ok = rv.key[run.keys[k]]
			} else {
				slots[k], ok = rv.slot[run.words[k]]
			}
			if !ok {
				slots[k] = -1
			}
		}
		sd.slots = slots
		prepare(v, sd, r, slots, run.counts)
	}
	return v.fixed(v.lay.record(&q), sd, false)
}

// PrepareRow prepares row i of s into sd under the current statistics, as
// the reference side l of every pair when l is set and as the query side
// r otherwise, for the representations mask's groups read.
//
//autofj:hotpath
func (v *Vocab) PrepareRow(sd *Side, s *Rows, i int, mask GroupMask, l bool) Fixed {
	nrep := len(v.lay.reps)
	for r := range v.lay.reps {
		if mask&v.groups[r] != 0 {
			at := i*nrep + r
			lo, hi := s.off[at], s.off[at+1]
			if s.wide {
				prepare(v, sd, r, s.slots32[lo:hi], s.runCounts(at))
			} else {
				prepare(v, sd, r, s.slots16[lo:hi], s.runCounts(at))
			}
		}
	}
	return v.fixed(s.record(i), sd, l)
}

// prepare fills the tables of representation r of v from a count vector:
// slots ascending by token (-1 for a token v lacks) and their counts, nil
// when every one is 1. IDF weights are count × sw with weighIDF's
// arithmetic, and the equal-weight Sum and Norm are RunSums'.
//
//autofj:hotpath
func prepare[S distance.Slot](v *Vocab, sd *Side, r int, slots []S, counts []uint32) {
	rep, rv := v.lay.reps[r], &v.reps[r]
	sd.held[rep.Pre][rep.Tok] = appendConverted(sd.held[rep.Pre][rep.Tok][:0], slots)
	need := &v.lay.need[rep.Pre][rep.Tok]
	n := int32(len(slots))
	if need[weights.IDF] {
		p := sized(&sd.set[rep.Pre][rep.Tok][weights.IDF], len(rv.toks))
		unseen := v.idf.Weight(0)
		var sum, norm float64
		for k, sl := range slots {
			c := 1.0
			if counts != nil {
				c = float64(counts[k])
			}
			x := float64(c * unseen)
			if sl >= 0 {
				x = float64(c * rv.sw[sl])
				p.W[sl] = x
			}
			sum += x
			norm += float64(x * x)
		}
		p.Sum, p.Norm, p.N = sum, math.Sqrt(norm), n
	}
	if need[weights.Equal] {
		p := sized(&sd.set[rep.Pre][rep.Tok][weights.Equal], len(rv.toks))
		for k, sl := range slots {
			if sl >= 0 {
				p.W[sl] = 1
				if counts != nil {
					p.W[sl] = float64(counts[k])
				}
			}
		}
		if counts == nil {
			p.Sum, p.Norm = float64(n), math.Sqrt(float64(n))
		} else {
			p.Sum, p.Norm = RunSums(counts)
		}
		p.N = n
	}
}

// record returns the strings and embeddings of the counted record c.
func (lay *layout) record(c *Counted) Record {
	r := Record{proc: c.proc}
	for pi := 0; pi < numPre; pi++ {
		if e := lay.emb[pi]; e >= 0 {
			r.emb[pi] = c.emb[e].Lanes()
		}
	}
	return r
}

// sameAs returns the first option before pi that need marks as built and
// whose processed string in procs equals proc, or -1.
func sameAs(procs *[numPre]string, need *[numPre]bool, pi int, proc string) int {
	for pj := 0; pj < pi; pj++ {
		if need[pj] && procs[pj] == proc {
			return pj
		}
	}
	return -1
}
