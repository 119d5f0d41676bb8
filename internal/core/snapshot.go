package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"
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
// rows, negative-rule word sets), and the raw live delta rows, which the
// row store's builder (rowStore.appendRows) stores at load with nil cells,
// keeping the decoded rows themselves, not copies.
// Strings decode as substrings of the mapped or loaded body; posting and
// doc-gram lists are aligned fixed-width little-endian blocks aliased
// straight out of it. A row's blocking key and program-column cells are
// derived from its cells, in the file as in memory.
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
// Version 4 stores what the row store keeps and nothing it derives: no
// float (a run's Sum and Norm follow from its counts, config.RunSums), no
// IDF statistics (load counts the live rows into the vocabularies, as a
// build does), and no count for a run whose counts are all 1 — each run's
// length carries a counted bit, and only a counted run stores counts.
// Load refuses a counted run of ones, so a table has one encoding. The
// benchmark ledger's reference table takes 908 bytes a row (1,187 in
// version 3).
//
// Load never trusts the input: every count is bounds-checked against the
// remaining bytes and every cross-reference is validated, so a truncated or
// corrupted file yields a descriptive error, never a panic. Only the
// current version loads — a snapshot is a cache of a compile, so an old
// reader answers with "recompile" (ErrSnapshotVersion), never with a
// best-effort decode.

const (
	snapshotMagic     = "AFJS"
	snapshotVersion   = 4
	snapshotHeaderLen = 9 // magic + version byte + crc32c
)

// ErrSnapshotVersion is wrapped by the error of a load whose snapshot has
// another version than the one this build writes: the file is a stale
// cache of a compile, to be rebuilt from its program and rows.
var ErrSnapshotVersion = errors.New("core: unsupported snapshot version")

// snapshotCRC is the Castagnoli table: crc32c has dedicated hardware
// support on both amd64 and arm64, and the checksum pass touches every
// byte of a multi-megabyte file on the boot path.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Save writes a snapshot of the table's current generation to w.
func (t *Table) Save(w io.Writer) error {
	b := &snapWriter{}
	b.str(string(t.progJSON))
	b.uvarint(uint64(t.store.width))
	t.mu.RLock()
	t.store.encode(b)
	t.mu.RUnlock()
	body := b.buf.Bytes()

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
		return fmt.Errorf("%w %d (this build reads version %d)", ErrSnapshotVersion, v, snapshotVersion)
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
// positions in error messages are absolute file offsets. The store is
// decoded first, then the table built around it (see newTable).
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
	var derr error
	t, err := prog.newTable(width, opt, func(s *rowStore) error { derr = s.decode(r); return derr })
	if err != nil && derr == nil {
		return nil, fmt.Errorf("core: snapshot program does not compile: %w", err)
	}
	return t, err
}
