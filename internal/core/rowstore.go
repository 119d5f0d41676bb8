package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/parallel"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// rowStore owns a Table's rows, the one place they are stored, counted,
// tombstoned, compacted, saved and loaded: immutable compiled segments
// plus a small mutable delta (an LSM tree's shape), the blocking
// TableIndex over them and one config.Vocab per program column. Its
// Table's lock guards it; segment and index build off the lock.
type rowStore struct {
	tix   *blocking.TableIndex
	segs  []*tablePayload
	delta *tablePayload
	cols  []*config.Vocab  // per program column
	recs  []config.Counted // add's counted record per program column, reused under the write lock
	slots []int32          // add's interned slots (config.Vocab.AppendChunk), reused likewise

	columns  []int         // program columns: the cells the vocabularies count
	width    int           // cells per row
	keyForms textproc.Mask // see processKey
	multi    bool
	hasRules bool // rows keep their negative-rule word sets
}

// tablePayload stores the row-level compiled state of one segment (frozen)
// or of the delta (append-only between compactions). A row is stored once,
// as its cells, its count rows (one per program column) and its
// negative-rule word set; its blocking key and program-column cells are
// derived from the cells where they are read (keyOf, cellOf). Slices only
// grow; row contents are immutable, so read-locked queries may hold
// references across mutations.
type tablePayload struct {
	rows  [][]string
	cols  []config.Rows // [program column]
	words [][]string    // nil when the program has no negative rules
}

const (
	// maxTableSegments triggers a full rebuild when minor compactions have
	// piled up too many segments for the merge to stay cheap.
	maxTableSegments = 8
	// minMajorGarbage is the minimum number of tombstoned rows before a
	// dead-fraction-triggered full rebuild is worth it.
	minMajorGarbage = 32
)

// newRowStore returns an empty store for rows of width cells, with one
// vocabulary under space per program column.
func newRowStore(space []config.JoinFunction, columns []int, width int, multi, hasRules bool) rowStore {
	s := rowStore{tix: blocking.NewTableIndex(), cols: make([]*config.Vocab, len(columns)), recs: make([]config.Counted, len(columns)),
		columns: columns, width: width, multi: multi, hasRules: hasRules}
	for j := range s.cols {
		s.cols[j] = config.NewVocab(space)
	}
	if !multi {
		s.keyForms = s.cols[0].Forms()
	}
	if hasRules {
		s.keyForms |= textproc.LowerStemRemovePunct.Mask()
	}
	s.delta = s.newPayload(0)
	return s
}

// newPayload returns empty storage with room for n rows.
func (s *rowStore) newPayload(n int) *tablePayload {
	pl := &tablePayload{
		rows: make([][]string, 0, n),
		cols: make([]config.Rows, len(s.cols)),
	}
	for j := range s.cols {
		pl.cols[j] = s.cols[j].NewRows(n)
	}
	if s.hasRules {
		pl.words = make([][]string, 0, n)
	}
	return pl
}

// prefix returns a frozen view of the first m rows (capacity-capped, so
// later appends to the parent can never write into it).
func (pl *tablePayload) prefix(m int) *tablePayload {
	np := &tablePayload{
		rows: pl.rows[:m:m],
		cols: make([]config.Rows, len(pl.cols)),
	}
	for j := range pl.cols {
		np.cols[j] = pl.cols[j].Prefix(m)
	}
	if pl.words != nil {
		np.words = pl.words[:m:m]
	}
	return np
}

// tail returns a fresh payload holding the rows from m on.
func (pl *tablePayload) tail(m int) *tablePayload {
	np := &tablePayload{
		rows: append([][]string(nil), pl.rows[m:]...),
		cols: make([]config.Rows, len(pl.cols)),
	}
	for j := range pl.cols {
		np.cols[j] = pl.cols[j].Tail(m)
	}
	if pl.words != nil {
		np.words = append([][]string(nil), pl.words[m:]...)
	}
	return np
}

// keyOf builds the blocking key of a full row.
func (s *rowStore) keyOf(row []string) string { return DisplayRow(row, s.multi) }

// keysOf builds the blocking keys of rows.
func (s *rowStore) keysOf(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = s.keyOf(row)
	}
	return keys
}

// processKey pre-processes a row's blocking key in one pass: under
// L+S+RP for its negative-rule word set when the table has rules, and
// under its column's stored options when it is a single cell. It returns
// the forms CountRecord takes, or nil for a multi-column table.
func (s *rowStore) processKey(f *textproc.Forms, key string) *textproc.Forms {
	if textproc.Process(f, key, s.keyForms); s.multi {
		return nil
	}
	return f
}

// cellOf selects program column j's cell of a full row.
func (s *rowStore) cellOf(row []string, j int) string { return row[s.columns[j]] }

// build stores rows, copied, as the store's one segment, refusing a row
// that does not have width cells. h, when not nil, is what the search
// that learned the program built over the same rows (see learnedL).
func (s *rowStore) build(rows [][]string, h *learnedL, parallelism int) error {
	n := len(rows)
	if err := checkRows(rows, s.width); err != nil || n == 0 {
		return err
	}
	pl := s.newPayload(n)
	s.appendRows(pl, rows, make([]string, n*s.width), h, make([]config.Counted, min(n, config.BuildChunk)*len(s.cols)), new([]int32), parallelism)
	if h != nil {
		s.tix = h.index
	} else {
		s.tix = s.index(pl, parallelism)
	}
	s.segs = append(s.segs, pl)
	return nil
}

// appendRows stores rows as the next rows of pl and counts them live. Rows
// the caller owns are copied into cells, one block of len(rows) × width
// cells as a snapshot's rows are; nil cells stores the rows themselves.
// It is the one way rows enter a table (build, Learn's handover, add and
// a snapshot's delta rows), and the row builder a config.ProfileArena
// uses: records are counted (config.Vocab.CountRecord) one chunk at a time
// on up to parallelism workers, then each column's chunk is interned and
// stored in row order (config.Vocab.AppendChunk), and the vocabularies
// settle.
// recs holds a chunk's counted records, column j's at [j*chunk,
// (j+1)*chunk), so its length sets the chunk, and slots the chunk's
// interned slots, one column at a time. h, when not nil, supplies the
// rows' processed strings and word sets (see learnedL).
func (s *rowStore) appendRows(pl *tablePayload, rows [][]string, cells []string, h *learnedL, recs []config.Counted, slots *[]int32, parallelism int) {
	n, first, chunk := len(rows), len(pl.rows), s.chunk(recs)
	pl.rows = slices.Grow(pl.rows, n)[:first+n]
	if s.hasRules {
		pl.words = slices.Grow(pl.words, n)[:first+n]
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(n, lo+chunk)
		// One worker counts inline: a sequential caller (add) builds no
		// closure.
		if w := parallel.Workers(parallelism, hi-lo); w == 1 {
			s.countRows(pl, rows, cells, h, recs, first, lo, lo, hi)
		} else {
			parallel.Shard(hi-lo, w, func(start, end int) {
				s.countRows(pl, rows, cells, h, recs, first, lo, lo+start, lo+end)
			})
		}
		for j := range s.cols {
			s.cols[j].AppendChunk(&pl.cols[j], recs[j*chunk:j*chunk+hi-lo], slots, parallelism)
		}
	}
	for j := range s.cols {
		s.cols[j].Settle()
	}
}

// chunk returns the rows per chunk of the counted records recs (see
// appendRows).
func (s *rowStore) chunk(recs []config.Counted) int { return max(len(recs)/max(len(s.cols), 1), 1) }

// countRows stores rows [start, end) of the chunk starting at row lo as
// rows first+i of pl (copied into row i of cells when cells is not nil),
// with their word sets, and counts each program column's cell into recs
// (laid out as appendRows says).
func (s *rowStore) countRows(pl *tablePayload, rows [][]string, cells []string, h *learnedL, recs []config.Counted, first, lo, start, end int) {
	chunk, w := s.chunk(recs), s.width
	var f textproc.Forms
	var words []string // a row's word set, copied out at its size
	for i := start; i < end; i++ {
		row := rows[i]
		if cells != nil {
			row = cells[i*w : (i+1)*w : (i+1)*w]
			copy(row, rows[i])
		}
		pl.rows[first+i] = row
		var proc *textproc.Forms
		if h != nil {
			proc = &h.proc[i]
		} else if !s.multi || s.hasRules {
			proc = s.processKey(&f, s.keyOf(row))
		}
		for j := range s.cols {
			s.cols[j].CountRecord(&recs[j*chunk+i-lo], s.cellOf(row, j), proc)
		}
		if s.hasRules && h != nil {
			pl.words[first+i] = h.words[i]
		} else if s.hasRules {
			words = negrule.AppendWords(words[:0], f[textproc.LowerStemRemovePunct])
			pl.words[first+i] = append([]string(nil), words...)
		}
	}
}

// add stores rows as the next delta rows, copied into cells when cells is
// not nil (see appendRows), on the caller's goroutine.
func (s *rowStore) add(rows [][]string, cells []string) {
	for _, row := range rows {
		s.tix.AddDelta(s.keyOf(row))
	}
	s.appendRows(s.delta, rows, cells, nil, s.recs, &s.slots, 1)
}

// remove tombstones and uncounts the rows at the ascending dense ids
// sorted, then renumbers the rest; a bad id is refused with no change.
func (s *rowStore) remove(sorted []int) error {
	n := s.tix.Len()
	for i, d := range sorted {
		if d < 0 || d >= n {
			return fmt.Errorf("core: row %d out of range [0, %d)", d, n)
		}
		if i > 0 && sorted[i-1] == d {
			return fmt.Errorf("core: duplicate row %d in removal", d)
		}
	}
	for _, d := range sorted {
		pl, local := s.payload(d)
		for j := range s.cols {
			s.cols[j].Count(&pl.cols[j], int(local), -1)
		}
		s.tix.RemoveDense(d)
	}
	for j := range s.cols {
		s.cols[j].Settle()
	}
	s.tix.Renumber()
	return nil
}

// pending returns the delta's rows, live or not: what a minor compaction seals.
func (s *rowStore) pending() [][]string {
	m := s.tix.DeltaRows()
	return s.delta.rows[:m:m]
}

// segment builds the blocking segment of rows (pending's).
func (s *rowStore) segment(rows [][]string, parallelism int) *blocking.Segment {
	return blocking.BuildSegment(s.keysOf(rows), parallelism)
}

// seal swaps the first seg.Len() delta rows for seg, their compiled
// segment: the rows keep their dense ids, statistics and payload.
func (s *rowStore) seal(seg *blocking.Segment) {
	m := seg.Len()
	s.tix.CompactDelta(m, seg)
	s.segs = append(s.segs, s.delta.prefix(m))
	s.delta = s.delta.tail(m)
}

// needsMajor reports whether a full rebuild is worth it: too many
// segments, or a majority of stored rows are tombstones.
func (s *rowStore) needsMajor() bool {
	stored := s.tix.Stored()
	if stored == 0 {
		return false
	}
	dead := stored - s.tix.Len()
	return s.tix.Segments() > maxTableSegments ||
		(dead >= minMajorGarbage && dead*2 > stored)
}

// live copies the live rows, in dense order, into one new payload.
func (s *rowStore) live() *tablePayload {
	n := s.tix.Len()
	npl := s.newPayload(n)
	for d := 0; d < n; d++ {
		pl, local := s.payload(d)
		npl.rows = append(npl.rows, pl.rows[local])
		for j := range s.cols {
			npl.cols[j].AppendRow(&pl.cols[j], int(local))
		}
		if s.hasRules {
			npl.words = append(npl.words, pl.words[local])
		}
	}
	return npl
}

// index builds a one-segment blocking index over pl's rows.
func (s *rowStore) index(pl *tablePayload, parallelism int) *blocking.TableIndex {
	return blocking.BuildTableIndex(s.keysOf(pl.rows), parallelism)
}

// replace makes pl (live's), indexed by tix, the store's one segment.
func (s *rowStore) replace(tix *blocking.TableIndex, pl *tablePayload) {
	s.tix = tix
	s.segs = []*tablePayload{pl}
	s.delta = s.newPayload(0)
}

// payload resolves dense id d to its storage and its row there.
//
//autofj:hotpath
func (s *rowStore) payload(d int) (*tablePayload, int32) {
	ref := s.tix.Ref(d)
	if ref.Seg >= 0 {
		return s.segs[ref.Seg], ref.Local
	}
	return s.delta, ref.Local
}

// rows returns the live rows in dense order.
func (s *rowStore) rows() [][]string {
	out := make([][]string, s.tix.Len())
	for d := range out {
		out[d], _ = s.row(d) // d is in range: no error
	}
	return out
}

// row returns live row d.
func (s *rowStore) row(d int) ([]string, error) {
	if d < 0 || d >= s.tix.Len() {
		return nil, fmt.Errorf("core: row %d out of range [0, %d)", d, s.tix.Len())
	}
	pl, local := s.payload(d)
	return pl.rows[local], nil
}

// ---------------------------------------------------------------------------
// The store's part of a snapshot body (see snapshot.go for the format)

// encode writes the store's part of a snapshot body.
func (s *rowStore) encode(w *snapWriter) {
	w.uvarint(uint64(s.tix.Segments()))
	for si := 0; si < s.tix.Segments(); si++ {
		seg := s.tix.Segment(si)
		pl := s.segs[si]
		n := seg.Len()
		w.uvarint(uint64(n))
		vocab, postings, docGrams := seg.Parts()
		w.strs(vocab)
		w.uvarint(uint64(len(postings)))
		w.int32Lists(postings)
		w.int32Lists(docGrams)
		w.bitmap(s.tix.SegmentAlive(si))
		for i := 0; i < n; i++ {
			for _, cell := range pl.rows[i] {
				w.str(cell)
			}
		}
		for j, vocab := range s.cols {
			rows := &pl.cols[j]
			// The column's token dictionary: sorted distinct tokens, written
			// once; count vectors below store indices into it.
			dict, index := vocab.Dictionary(rows)
			w.uvarint(uint64(rows.Tokens()))
			w.strs(dict)
			var row config.Row
			for i := 0; i < n; i++ {
				// Each row is length-prefixed so Load can verify it was
				// consumed exactly and fail before any cross-row smearing.
				// The prefix is fixed-width and backpatched after the write:
				// a varint's width would depend on the row's length, which
				// depends on the alignment padding, which depends on the
				// prefix's width.
				off := w.buf.Len()
				w.buf.Write([]byte{0, 0, 0, 0})
				rows.Get(i, &row)
				w.row(vocab, &row, &index)
				binary.LittleEndian.PutUint32(w.buf.Bytes()[off:off+4], uint32(w.buf.Len()-off-4))
			}
		}
		if s.hasRules {
			totalWords := 0
			for i := 0; i < n; i++ {
				totalWords += len(pl.words[i])
			}
			w.uvarint(uint64(totalWords))
			for i := 0; i < n; i++ {
				w.strs(pl.words[i])
			}
		}
	}

	// Live delta rows, stored through the row builder at load.
	var live [][]string
	for i, row := range s.pending() {
		if s.tix.DeltaAlive(i) {
			live = append(live, row)
		}
	}
	w.uvarint(uint64(len(live)))
	for _, row := range live {
		for _, cell := range row {
			w.str(cell)
		}
	}
}

// row serializes the representation-need-guided parts of one stored row.
// Raw is not stored (it equals the cell); proc strings, embeddings, and
// count vectors are, because recomputing them is the bulk of compile
// cost. A slot run is stored as uvarint(n<<1 | counted) for its n tokens,
// then the tokens as gap-encoded varint indices into the column
// dictionary: the first index raw, each later one as the (strictly
// positive) increment over its predecessor — a slot run is in ascending
// token order and the dictionary is sorted, so the gaps are small and
// almost always one byte. A counted run, one whose counts are not all 1,
// then stores its n counts as varints, almost always one byte too (the
// smaller file beats an aliasable fixed-width block on the boot path,
// where the checksum and page-in touch every byte); a run of ones, which
// Get hands over with no counts, stores none.
func (w *snapWriter) row(vocab *config.Vocab, r *config.Row, index *config.SlotIndex) {
	for pi := range r.Proc {
		pre := textproc.Option(pi)
		if !vocab.NeedProc(pre) {
			continue
		}
		w.str(r.Proc[pi])
		if vocab.NeedEmb(pre) {
			w.lanes(&r.Emb[pi])
		}
		for ti := range r.Slots[pi] {
			if !vocab.NeedCounts(pre, tokenize.Option(ti)) {
				continue
			}
			slots, counts := r.Slots[pi][ti], r.Counts[pi][ti]
			counted := uint64(min(len(counts), 1))
			w.uvarint(uint64(len(slots))<<1 | counted)
			var prev uint64
			for i, sl := range slots {
				idx := uint64(index[pi][ti][sl])
				if i == 0 {
					w.uvarint(idx)
				} else {
					w.uvarint(idx - prev)
				}
				prev = idx
			}
			for _, c := range counts {
				w.uvarint(uint64(c))
			}
		}
	}
}

// lanes writes one stored embedding: its lane width in bytes, then its
// embed.Dim counts at that width, little-endian.
func (w *snapWriter) lanes(l *embed.Lanes) {
	if l.Narrow != nil {
		w.buf.WriteByte(1)
		for _, x := range l.Narrow {
			w.buf.WriteByte(byte(x))
		}
		return
	}
	w.buf.WriteByte(4)
	for _, x := range l.Wide {
		binary.LittleEndian.PutUint32(w.tmp[:4], uint32(x))
		w.buf.Write(w.tmp[:4])
	}
}

// decode reads the rest of a snapshot body (see encode) into the empty
// store; the delta rows are stored as decoded, not copied.
func (s *rowStore) decode(r *snapReader) error {
	nseg := r.count(8)
	for si := 0; si < nseg && r.err == nil; si++ {
		if err := s.decodeSegment(r); err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}
	for _, vocab := range s.cols {
		vocab.Settle()
	}

	// Each cell costs at least its length byte.
	ndelta := r.count(s.width)
	deltaRows := r.rows(nil, ndelta, s.width)
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("core: snapshot has %d trailing bytes", r.remaining())
	}
	if len(deltaRows) > 0 {
		s.add(deltaRows, nil) // the decoded rows are the store's own
	}
	return nil
}

// decodeSegment reads one compiled segment with its payload and attaches
// both to the store, counting its live rows into the column vocabularies.
//
// Decoding is allocation-frugal on purpose: the serialized totals let
// every posting list, doc-gram list, row cell and slot run be carved out
// of one block per kind, instead of one heap object each. Per-object
// allocation (and the GC traffic it causes) dominated load time before
// this; the blocks are what keeps snapshot boot far cheaper than a
// recompile.
func (s *rowStore) decodeSegment(r *snapReader) error {
	n := r.count(2)
	vocab := r.strs()
	npost := r.count(1)
	if r.err != nil {
		return r.err
	}
	if npost != len(vocab) {
		return fmt.Errorf("core: invalid snapshot: %d posting lists for %d grams", npost, len(vocab))
	}
	postings := r.int32Lists(npost)
	docGrams := r.int32Lists(n)
	alive := r.bitmap(n)
	if r.err != nil {
		return r.err
	}
	seg, err := blocking.NewSegmentFromParts(n, vocab, postings, docGrams)
	if err != nil {
		return fmt.Errorf("core: invalid snapshot: %w", err)
	}

	if cells := n * s.width; cells > r.remaining() {
		// Every cell costs at least its one length byte, so a row count the
		// data cannot back fails here, before the block allocations.
		r.fail("%d row cells overrun data", cells)
		return r.err
	}
	pl := s.newPayload(n)
	pl.rows = r.rows(pl.rows, n, s.width)
	var row config.Row
	for j, vocab := range s.cols {
		totalToks := r.count(1)
		dict := r.strs()
		if r.err != nil {
			return r.err
		}
		for i := 1; i < len(dict); i++ {
			// A sorted dictionary is what makes "ascending indices" mean
			// "ascending tokens" for every slot run decoded below.
			if dict[i] <= dict[i-1] {
				return fmt.Errorf("core: invalid snapshot: token dictionary out of order")
			}
		}
		rows := &pl.cols[j]
		rows.Reserve(totalToks, 0, n)
		vocab.Reserve(len(dict))
		var slotOf config.SlotIndex // dictionary index -> slot, -1 until first use
		for pi := range slotOf {
			for ti := range slotOf[pi] {
				if vocab.NeedCounts(textproc.Option(pi), tokenize.Option(ti)) {
					slotOf[pi][ti] = make([]int32, len(dict))
					for k := range slotOf[pi][ti] {
						slotOf[pi][ti][k] = -1
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			ln := r.u32()
			if r.err != nil {
				return r.err
			}
			end := r.pos + ln
			if err := r.row(vocab, dict, &slotOf, &row, &totalToks); err != nil {
				return err
			}
			if r.pos != end {
				return fmt.Errorf("core: invalid snapshot: row length prefix off by %d bytes", end-r.pos)
			}
			rows.Append(&row)
			if alive[i] {
				vocab.Count(rows, i, 1)
			}
		}
	}
	if s.hasRules {
		wordsArena := make([]string, r.count(1))
		pl.words = pl.words[:n]
		for i := 0; i < n; i++ {
			pl.words[i] = r.strsArena(&wordsArena)
		}
	}
	if r.err != nil {
		return r.err
	}

	s.tix.AttachSegment(seg, alive, true)
	s.segs = append(s.segs, pl)
	return nil
}

// row decodes one stored row of the vocab's column into dst, whose buffers it
// reuses. Tokens arrive as gap-encoded indices into the column dictionary;
// strictly positive gaps against a validated-sorted dictionary guarantee
// the decoded slot run is in ascending token order without comparing a
// single string, and slotOf resolves each index to its vocabulary slot,
// interning the dictionary token on its first use. A run of ones is
// handed over with no counts, as Get hands it to the writer. A counted
// run's counts must be positive, fit a uint32 and not all be 1, so a
// corrupted snapshot cannot smuggle in a vector the distance kernels would
// misbehave on, and a table has one encoding. budget is the number of
// token entries the column still declares.
func (r *snapReader) row(vocab *config.Vocab, dict []string, slotOf *config.SlotIndex, dst *config.Row, budget *int) error {
	for pi := range dst.Proc {
		pre := textproc.Option(pi)
		if !vocab.NeedProc(pre) {
			continue
		}
		dst.Proc[pi] = r.str()
		if vocab.NeedEmb(pre) {
			if err := r.lanes(&dst.Emb[pi]); err != nil {
				return err
			}
		}
		for ti := range dst.Slots[pi] {
			tok := tokenize.Option(ti)
			if !vocab.NeedCounts(pre, tok) {
				continue
			}
			h := r.uvarint()
			if r.err != nil {
				return r.err
			}
			// Every token costs at least its one gap byte.
			if h>>1 > uint64(r.remaining()) {
				r.fail("count vector of %d tokens overruns data", h>>1)
				return r.err
			}
			nt, counted := int(h>>1), h&1 == 1
			if nt > *budget {
				r.fail("count vector exceeds the declared token total")
				return r.err
			}
			*budget -= nt
			slots, counts := slices.Grow(dst.Slots[pi][ti][:0], nt), dst.Counts[pi][ti][:0]
			var idx uint64
			for i := 0; i < nt; i++ {
				gap := r.uvarint()
				if r.err != nil {
					return r.err
				}
				if i == 0 {
					idx = gap
				} else {
					if gap == 0 {
						return fmt.Errorf("core: invalid snapshot: count vector tokens out of order")
					}
					idx += gap
				}
				if idx >= uint64(len(dict)) {
					return fmt.Errorf("core: invalid snapshot: token index %d out of dictionary range %d", idx, len(dict))
				}
				sl := slotOf[pi][ti][idx]
				if sl < 0 {
					var err error
					if sl, err = vocab.Intern(pre, tok, dict[idx]); err != nil {
						return fmt.Errorf("core: invalid snapshot: %w", err)
					}
					slotOf[pi][ti][idx] = sl
				}
				slots = append(slots, sl)
			}
			if counted {
				ones := true
				for range nt {
					c := r.uvarint()
					if r.err != nil {
						return r.err
					}
					if c == 0 || c > math.MaxUint32 {
						return fmt.Errorf("core: invalid snapshot: token count %d out of range", c)
					}
					ones = ones && c == 1
					counts = append(counts, uint32(c))
				}
				if ones {
					return fmt.Errorf("core: invalid snapshot: a counted run whose counts are all 1")
				}
			}
			dst.Slots[pi][ti], dst.Counts[pi][ti] = slots, counts
		}
	}
	return r.err
}

// lanes decodes one embedding written by snapWriter.lanes into dst. Narrow
// lanes alias the blob; wide ones decode into dst's own buffer, and must
// hold a count that does not fit int8 and make a vector a string could
// embed to (embed.Valid), so its norm is exact.
func (r *snapReader) lanes(dst *embed.Lanes) error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() < 1 {
		r.fail("truncated embedding")
		return r.err
	}
	width := int(r.blob[r.pos])
	r.pos++
	if width != 1 && width != 4 {
		r.fail("embedding lane width %d, want 1 or 4", width)
		return r.err
	}
	if r.remaining() < width*embed.Dim {
		r.fail("truncated embedding")
		return r.err
	}
	b := r.blob[r.pos : r.pos+width*embed.Dim]
	r.pos += width * embed.Dim
	if width == 1 {
		dst.Narrow = unsafe.Slice((*int8)(unsafe.Pointer(unsafe.StringData(b))), embed.Dim)
		return nil
	}
	if dst.Wide == nil {
		dst.Wide = make([]int32, embed.Dim)
	}
	for d := range dst.Wide {
		dst.Wide[d] = int32(uint32(b[4*d]) | uint32(b[4*d+1])<<8 | uint32(b[4*d+2])<<16 | uint32(b[4*d+3])<<24)
	}
	var narrow [embed.Dim]int8
	if embed.Narrow(narrow[:], dst.Wide) || !embed.Valid(dst.Wide) {
		return fmt.Errorf("core: invalid snapshot: wide embedding lanes out of range")
	}
	dst.Narrow = nil
	return nil
}
