package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// Binary snapshot format for compiled tables.
//
// Loading a snapshot skips everything expensive about compilation — q-gram
// index construction, tokenization, embedding — so a daemon restart is
// bounded by deserialization, not by recompiling the reference table. The
// format is versioned and checksummed:
//
//	"AFJS" | version byte | crc32c (Castagnoli) of body, LE | body
//
// The body stores the program (JSON, so snapshots stay debuggable), the row
// arity, each compiled segment (blocking parts, alive bitmap, rows, count
// rows, negative-rule word sets), the token IDF statistics, and the raw
// live delta rows, which are replayed through the normal Add path at load
// (storing the decoded rows themselves, not copies).
// Strings decode as substrings of the mapped or loaded body; posting and
// doc-gram lists and count-vector weights are aligned fixed-width
// little-endian blocks aliased straight out of it. A row's blocking key
// and program-column cells are derived from its cells, in the file as in
// memory.
//
// Version 2 dictionary-encodes the token columns: each (segment, program
// column) stores its sorted distinct tokens once, and every count vector
// stores gap-encoded varint indices into that dictionary instead of
// repeating the token bytes per row. The dictionary is sorted and the
// indices strictly ascend, so ascending indices are ascending tokens —
// decoded slot runs keep the token order the id kernels rely on without a
// per-token string comparison, and a dictionary token is hashed into the
// column vocabulary once, on its first use, not once per row.
//
// Version 3 stores each embedding as its integer bucket counts (see
// package embed): one lane-width byte, 1 when every count fits an int8
// and 4 otherwise, then embed.Dim lanes of that width in little-endian
// two's complement — 65 bytes an embedding instead of version 2's 512
// bytes of float64s. A row of the benchmark ledger's program (three GED
// pre-processings) stores 195 embedding bytes of its ~1,195 (2,543 in
// version 2). A vector whose counts fit int8 is always written in the
// 1-byte form. Norms are not stored: Load computes each from its lanes.
//
// Load never trusts the input: every count is bounds-checked against the
// remaining bytes and every cross-reference is validated, so a truncated or
// corrupted file yields a descriptive error, never a panic. Only the
// current version loads — a snapshot is a cache of a compile, so an old
// reader answers with "recompile", never with a best-effort decode.

const (
	snapshotMagic     = "AFJS"
	snapshotVersion   = 3
	snapshotHeaderLen = 9 // magic + version byte + crc32c
)

// snapshotCRC is the Castagnoli table: crc32c has dedicated hardware
// support on both amd64 and arm64, and the checksum pass touches every
// byte of a multi-megabyte file on the boot path.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Save writes a snapshot of the table's current generation to w.
func (t *Table) Save(w io.Writer) error {
	t.mu.RLock()
	body := t.encodeBody()
	t.mu.RUnlock()

	var hdr [9]byte
	copy(hdr[:4], snapshotMagic)
	hdr[4] = snapshotVersion
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(body, snapshotCRC))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// SaveFile writes a snapshot to path durably and atomically: the bytes go
// to a uniquely named temp file in path's directory (so concurrent saves
// never share one), are fsynced, and only then renamed over path, after
// which the directory entry is fsynced too. A crash at any point leaves
// either the previous snapshot or the complete new one under the final
// name; the temp file is removed on every error.
func (t *Table) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = t.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadTable reconstructs a table from snapshot bytes. The options play the
// same role as in Program.NewTable (parallelism, result cache size).
// The loaded table starts at generation 1 and answers every query
// bit-identically to the table that was saved.
func LoadTable(data []byte, opt Options) (*Table, error) {
	if err := checkSnapshotHeader(data); err != nil {
		return nil, err
	}
	// The caller keeps ownership of data, so decode over a private copy:
	// the loaded table's strings and posting lists alias the blob.
	return decodeBody(string(data), opt)
}

// loadOwnedTable is LoadTable for buffers the loader itself allocated and
// will never touch again: the decode aliases the bytes in place instead of
// copying the multi-megabyte body.
func loadOwnedTable(data []byte, opt Options) (*Table, error) {
	if err := checkSnapshotHeader(data); err != nil {
		return nil, err
	}
	return decodeBody(unsafe.String(unsafe.SliceData(data), len(data)), opt)
}

func checkSnapshotHeader(data []byte) error {
	if len(data) < snapshotHeaderLen {
		return fmt.Errorf("core: snapshot truncated: %d bytes, want at least a %d-byte header", len(data), snapshotHeaderLen)
	}
	if string(data[:4]) != snapshotMagic {
		return fmt.Errorf("core: not a table snapshot (bad magic %q)", data[:4])
	}
	if v := data[4]; v != snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d (this build reads version %d)", v, snapshotVersion)
	}
	if sum := crc32.Checksum(data[snapshotHeaderLen:], snapshotCRC); sum != binary.LittleEndian.Uint32(data[5:9]) {
		return fmt.Errorf("core: snapshot checksum mismatch (file corrupted or truncated)")
	}
	return nil
}

// LoadTableFile loads a snapshot from a file. Where the platform allows it
// the file is memory-mapped instead of read: the decode aliases the bytes
// either way, and mapping skips the copy, the buffer zeroing, and the GC
// pressure of a multi-megabyte read — the bulk of a daemon's boot cost.
// The mapping stays for the life of the process (see mmapFile); corrupt
// data is still rejected up front because the checksum pass touches every
// byte before any of it is trusted. The loaded table aliases the file's
// bytes, so the file must only ever be replaced by rename, as SaveFile
// does: truncating or rewriting it in place while a table loaded from it
// is alive is unsupported.
func LoadTableFile(path string, opt Options) (*Table, error) {
	if data, ok := mmapFile(path); ok {
		t, err := loadOwnedTable(data, opt)
		if err != nil {
			munmapFile(data)
			return nil, err
		}
		return t, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadOwnedTable(data, opt)
}

// ---------------------------------------------------------------------------
// Encoding

type snapWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *snapWriter) uvarint(x uint64) {
	n := binary.PutUvarint(w.tmp[:], x)
	w.buf.Write(w.tmp[:n])
}

func (w *snapWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *snapWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *snapWriter) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// int32Lists writes a run of int32 lists as all lengths (varints), padding
// to 4-byte file alignment, then every element as one contiguous block of
// fixed-width little-endian words. Posting and doc-gram runs hold hundreds
// of thousands of elements; the contiguous aligned block lets Load alias
// them straight out of the snapshot bytes instead of decoding per element.
func (w *snapWriter) int32Lists(lists [][]int32) {
	total := 0
	for _, xs := range lists {
		total += len(xs)
	}
	w.uvarint(uint64(total))
	for _, xs := range lists {
		w.uvarint(uint64(len(xs)))
	}
	w.pad4()
	for _, xs := range lists {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(w.tmp[:4], uint32(x))
			w.buf.Write(w.tmp[:4])
		}
	}
}

// pad4 zero-pads so the next byte lands on a 4-byte boundary of the final
// file (the 9-byte header precedes the body).
func (w *snapWriter) pad4() {
	for (snapshotHeaderLen+w.buf.Len())%4 != 0 {
		w.buf.WriteByte(0)
	}
}

func (w *snapWriter) bitmap(bs []bool) {
	for i := 0; i < len(bs); i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < len(bs); j++ {
			if bs[i+j] {
				b |= 1 << j
			}
		}
		w.buf.WriteByte(b)
	}
}

// encodeBody serializes the table under the caller's read lock.
func (t *Table) encodeBody() []byte {
	w := &snapWriter{}
	w.str(string(t.progJSON))
	w.uvarint(uint64(t.rowWidth))

	w.uvarint(uint64(t.tix.Segments()))
	for si := 0; si < t.tix.Segments(); si++ {
		seg := t.tix.Segment(si)
		pl := t.segs[si]
		n := seg.Len()
		w.uvarint(uint64(n))
		vocab, postings, docGrams := seg.Parts()
		w.strs(vocab)
		w.uvarint(uint64(len(postings)))
		w.int32Lists(postings)
		w.int32Lists(docGrams)
		w.bitmap(t.tix.SegmentAlive(si))
		for i := 0; i < n; i++ {
			for _, cell := range pl.rows[i] {
				w.str(cell)
			}
		}
		for j, vocab := range t.cols {
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
		if t.hasRules {
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

	// IDF statistics over every live row (segments and delta), per program
	// column and IDF-weighted representation. Entries are token-sorted so
	// snapshots stay byte-deterministic.
	for _, vocab := range t.cols {
		for _, rep := range t.reps {
			w.uvarint(uint64(vocab.Docs()))
			n := 0
			for range vocab.DF(rep.Pre, rep.Tok) {
				n++
			}
			w.uvarint(uint64(n))
			for tok, df := range vocab.DF(rep.Pre, rep.Tok) {
				w.str(tok)
				w.uvarint(uint64(df))
			}
		}
	}

	// Live delta rows, replayed through Add at load.
	live := 0
	for i := 0; i < t.tix.DeltaRows(); i++ {
		if t.tix.DeltaAlive(i) {
			live++
		}
	}
	w.uvarint(uint64(live))
	for i := 0; i < t.tix.DeltaRows(); i++ {
		if !t.tix.DeltaAlive(i) {
			continue
		}
		for _, cell := range t.delta.rows[i] {
			w.str(cell)
		}
	}
	return w.buf.Bytes()
}

// row serializes the representation-need-guided parts of one stored row.
// Raw is not stored (it equals the cell); proc strings, embeddings, and
// count vectors are, because recomputing them is the bulk of compile
// cost. Tokens are stored as gap-encoded varint indices into the column
// dictionary: the first index raw, each later one as the (strictly
// positive) increment over its predecessor — a slot run is in ascending
// token order and the dictionary is sorted, so the gaps are small and
// almost always one byte.
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
			slots := r.Slots[pi][ti]
			w.uvarint(uint64(len(slots)))
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
			// Sum and Norm are stored rather than recomputed at load — the
			// saved table's exact bits. The counts themselves stay varints:
			// they are whole numbers by construction and almost always one
			// byte, and the smaller file beats an aliasable fixed-width block
			// on the boot path (checksum and page-in touch every byte).
			w.f64(r.Sum[pi][ti])
			w.f64(r.Norm[pi][ti])
			for _, c := range r.Counts[pi][ti] {
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

// ---------------------------------------------------------------------------
// Decoding

type snapReader struct {
	blob string
	pos  int
	err  error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: invalid snapshot at byte %d: "+format, append([]any{r.pos}, args...)...)
	}
}

func (r *snapReader) remaining() int { return len(r.blob) - r.pos }

// uvarint decodes in place over the blob string: the obvious
// binary.Uvarint([]byte(...)) costs one tiny heap allocation per call,
// which would dominate snapshot load time (it runs once per token count
// and string length). The single-byte case — almost every value — is kept
// small enough to inline into the hot decode loops.
func (r *snapReader) uvarint() uint64 {
	if r.err == nil && r.pos < len(r.blob) {
		if b := r.blob[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b)
		}
	}
	return r.uvarintSlow()
}

func (r *snapReader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := r.pos; i < len(r.blob); i++ {
		b := r.blob[i]
		if b < 0x80 {
			if i-r.pos == binary.MaxVarintLen64-1 && b > 1 {
				r.fail("bad varint")
				return 0
			}
			r.pos = i + 1
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			r.fail("bad varint")
			return 0
		}
	}
	r.fail("bad varint")
	return 0
}

// count reads a length-prefix and validates it against the remaining bytes
// assuming each element costs at least per bytes — so a corrupted length
// can never drive a huge allocation. The cheap whole-remainder bound
// settles almost every call; the exact per-element division only runs on
// values near the end of the data.
func (r *snapReader) count(per int) int {
	x := r.uvarint()
	if r.err != nil {
		return 0
	}
	if x > uint64(r.remaining()) || (per > 1 && x > uint64(r.remaining()/per+1)) {
		r.fail("count %d larger than remaining data", x)
		return 0
	}
	return int(x)
}

// rows appends n rows of width cells to dst, their cells carved from one
// block. The caller has checked that the data can back n*width cells.
func (r *snapReader) rows(dst [][]string, n, width int) [][]string {
	cells := make([]string, n*width)
	for i := range n {
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for c := range row {
			row[c] = r.str()
		}
		dst = append(dst, row)
	}
	return dst
}

// str returns the next length-prefixed string as a substring of the blob.
// The one-byte-length in-bounds case — nearly every token and cell — is
// small enough to inline at the call sites.
func (r *snapReader) str() string {
	if r.err == nil && r.pos < len(r.blob) {
		if b := r.blob[r.pos]; b < 0x80 && int(b) <= len(r.blob)-r.pos-1 {
			s := r.blob[r.pos+1 : r.pos+1+int(b)]
			r.pos += 1 + int(b)
			return s
		}
	}
	return r.strSlow()
}

func (r *snapReader) strSlow() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	if n > r.remaining() {
		r.fail("string of %d bytes overruns data", n)
		return ""
	}
	s := r.blob[r.pos : r.pos+n]
	r.pos += n
	return s
}

// u32 reads a fixed-width little-endian uint32 (the backpatched row
// length prefix).
func (r *snapReader) u32() int {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.fail("truncated length prefix")
		return 0
	}
	v := uint32(r.blob[r.pos]) | uint32(r.blob[r.pos+1])<<8 |
		uint32(r.blob[r.pos+2])<<16 | uint32(r.blob[r.pos+3])<<24
	r.pos += 4
	return int(v)
}

func (r *snapReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float")
		return 0
	}
	// In-place unrolled LE decode; []byte(...) would allocate, and the
	// compiler fuses the byte loads into one 8-byte load.
	b := r.blob[r.pos : r.pos+8]
	u := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	r.pos += 8
	return math.Float64frombits(u)
}

func (r *snapReader) strs() []string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// hostLittleEndian reports whether fixed-width little-endian words can be
// read back by reinterpreting memory directly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// int32Lists decodes a run of nlists int32 lists written by
// snapWriter.int32Lists: the element total, every list length, alignment
// padding, then one contiguous block of little-endian words. On
// little-endian hosts with the block 4-aligned in memory — the normal case,
// since the writer pads to file alignment and the blob is a fresh
// allocation — the elements are aliased straight out of the snapshot bytes:
// the table pins the blob anyway (its rows and tokens are substrings of
// it), and segments never mutate their lists. Other hosts copy the block
// out element by element.
func (r *snapReader) int32Lists(nlists int) [][]int32 {
	total := r.count(4)
	if r.err != nil {
		return nil
	}
	lists := make([][]int32, nlists)
	lens := make([]int, nlists)
	sum := 0
	for i := range lens {
		ln := r.uvarint()
		if r.err != nil {
			return nil
		}
		if ln > uint64(total-sum) {
			r.fail("int32 list lengths exceed the declared total %d", total)
			return nil
		}
		lens[i] = int(ln)
		sum += int(ln)
	}
	if sum != total {
		r.fail("int32 list lengths sum to %d, want %d", sum, total)
		return nil
	}
	if pad := (4 - r.pos%4) % 4; pad > 0 {
		if pad > r.remaining() {
			r.fail("truncated int32 block padding")
			return nil
		}
		r.pos += pad
	}
	if 4*total > r.remaining() {
		r.fail("int32 block of %d elements overruns data", total)
		return nil
	}
	var view []int32
	if p := unsafe.Add(unsafe.Pointer(unsafe.StringData(r.blob)), r.pos); hostLittleEndian && uintptr(p)%4 == 0 && total > 0 {
		view = unsafe.Slice((*int32)(p), total)
	} else if total > 0 {
		view = make([]int32, total)
		b := r.blob[r.pos : r.pos+4*total]
		for i := range view {
			view[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
		}
	}
	r.pos += 4 * total
	off := 0
	for i, ln := range lens {
		if ln > 0 {
			lists[i] = view[off : off+ln : off+ln]
			off += ln
		}
	}
	return lists
}

// strsArena reads one string list into the next entries of arena, a
// block sized by the declared element total, and returns them.
func (r *snapReader) strsArena(arena *[]string) []string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	if n > len(*arena) {
		r.fail("string list of %d exceeds the declared element total", n)
		return nil
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *snapReader) bitmap(n int) []bool {
	if r.err != nil {
		return nil
	}
	nb := (n + 7) / 8
	if r.remaining() < nb {
		r.fail("truncated bitmap")
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.blob[r.pos+i/8]&(1<<(i%8)) != 0
	}
	r.pos += nb
	return out
}

// decodeBody decodes a full snapshot (header included, already verified);
// positions in error messages are absolute file offsets.
func decodeBody(blob string, opt Options) (*Table, error) {
	r := &snapReader{blob: blob, pos: snapshotHeaderLen}
	progJSON := r.str()
	if r.err != nil {
		return nil, r.err
	}
	prog, err := DecodeProgram([]byte(progJSON))
	if err != nil {
		return nil, fmt.Errorf("core: snapshot program: %w", err)
	}
	width := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if width < 1 || width > 1<<20 {
		return nil, fmt.Errorf("core: snapshot row width %d out of range", width)
	}
	t, err := prog.NewTable(width, nil, opt)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot program does not compile: %w", err)
	}

	nseg := r.count(8)
	for si := 0; si < nseg && r.err == nil; si++ {
		if err := t.decodeSegment(r); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, vocab := range t.cols {
		vocab.Settle()
	}
	segLive := t.tix.Len()

	// The serialized IDF statistics cover every live row, delta included, so
	// they are read here but checked only after the delta replay below.
	type loadedStats struct {
		docs   int
		tokens []string
		dfs    []int
	}
	stats := make([]loadedStats, 0, len(t.cols)*len(t.reps))
	for j := 0; j < len(t.cols) && r.err == nil; j++ {
		for range t.reps {
			// docs counts documents, not bytes, so it is not bounded by the
			// remaining data; validate its range directly.
			docs := r.uvarint()
			if r.err == nil && docs > 1<<40 {
				return nil, fmt.Errorf("core: invalid snapshot: document count %d out of range", docs)
			}
			nent := r.count(2)
			ls := loadedStats{docs: int(docs), tokens: make([]string, nent), dfs: make([]int, nent)}
			prev := ""
			for i := 0; i < nent && r.err == nil; i++ {
				tok := r.str()
				df := r.uvarint()
				if r.err != nil {
					break
				}
				if i > 0 && tok <= prev {
					return nil, fmt.Errorf("core: invalid snapshot: df tokens out of order")
				}
				prev = tok
				if df < 1 || df > docs {
					return nil, fmt.Errorf("core: invalid snapshot: df %d out of range for %d documents", df, docs)
				}
				ls.tokens[i] = tok
				ls.dfs[i] = int(df)
			}
			stats = append(stats, ls)
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	// Each cell costs at least its length byte.
	ndelta := r.count(width)
	deltaRows := r.rows(nil, ndelta, width)
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("core: snapshot has %d trailing bytes", r.remaining())
	}
	for _, ls := range stats {
		if ls.docs != segLive+ndelta {
			return nil, fmt.Errorf("core: invalid snapshot: statistics cover %d documents, table has %d live rows",
				ls.docs, segLive+ndelta)
		}
	}
	if len(deltaRows) > 0 {
		if _, err := t.add(deltaRows, false); err != nil {
			return nil, fmt.Errorf("core: snapshot delta: %w", err)
		}
	}
	// The vocabularies counted the live rows as they loaded; the stored
	// statistics must say the same, entry for entry.
	si := 0
	for _, vocab := range t.cols {
		for _, rep := range t.reps {
			ls := stats[si]
			si++
			k := 0
			for tok, df := range vocab.DF(rep.Pre, rep.Tok) {
				if k == len(ls.tokens) || ls.tokens[k] != tok || ls.dfs[k] != df {
					return nil, fmt.Errorf("core: invalid snapshot: statistics disagree with the stored rows")
				}
				k++
			}
			if k != len(ls.tokens) {
				return nil, fmt.Errorf("core: invalid snapshot: statistics disagree with the stored rows")
			}
		}
	}
	t.gen.Store(1)
	return t, nil
}

// decodeSegment reads one compiled segment with its payload and attaches
// both to the (load-phase, unshared) table, counting its live rows into
// the column vocabularies.
//
// Decoding is allocation-frugal on purpose: the serialized totals let
// every posting list, doc-gram list, row cell and slot run be carved out
// of one block per kind, instead of one heap object each. Per-object
// allocation (and the GC traffic it causes) dominated load time before
// this; the blocks are what keeps snapshot boot far cheaper than a
// recompile.
func (t *Table) decodeSegment(r *snapReader) error {
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

	if cells := n * t.rowWidth; cells > r.remaining() {
		// Every cell costs at least its one length byte, so a row count the
		// data cannot back fails here, before the block allocations.
		r.fail("%d row cells overrun data", cells)
		return r.err
	}
	pl := t.newPayload(n)
	pl.rows = r.rows(pl.rows, n, t.rowWidth)
	var row config.Row
	for j, vocab := range t.cols {
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
		rows.Reserve(totalToks, n)
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
	if t.hasRules {
		wordsArena := make([]string, r.count(1))
		pl.words = pl.words[:n]
		for i := 0; i < n; i++ {
			pl.words[i] = r.strsArena(&wordsArena)
		}
	}
	if r.err != nil {
		return r.err
	}

	t.tix.AttachSegment(seg, alive, true)
	t.segs = append(t.segs, pl)
	t.k = blocking.K(t.tix.Len(), t.beta)
	t.growBalls()
	return nil
}

// row decodes one stored row of the vocab's column into dst, whose buffers it
// reuses. Tokens arrive as gap-encoded indices into the column dictionary;
// strictly positive gaps against a validated-sorted dictionary guarantee
// the decoded slot run is in ascending token order without comparing a
// single string, and slotOf resolves each index to its vocabulary slot,
// interning the dictionary token on its first use. Sum and Norm of each
// count vector carry the saved table's exact bits; count positivity is
// validated so a corrupted snapshot cannot smuggle in a vector the
// distance kernels would misbehave on. budget is the number of token
// entries the column still declares.
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
			nt := r.count(1)
			if r.err != nil {
				return r.err
			}
			if nt > *budget {
				r.fail("count vector exceeds the declared token total")
				return r.err
			}
			*budget -= nt
			slots, counts := slices.Grow(dst.Slots[pi][ti][:0], nt), slices.Grow(dst.Counts[pi][ti][:0], nt)
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
			dst.Sum[pi][ti] = r.f64()
			dst.Norm[pi][ti] = r.f64()
			for range slots {
				c := r.uvarint()
				if r.err != nil {
					return r.err
				}
				if c == 0 || c > math.MaxUint32 {
					return fmt.Errorf("core: invalid snapshot: token count %d out of range", c)
				}
				counts = append(counts, uint32(c))
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
