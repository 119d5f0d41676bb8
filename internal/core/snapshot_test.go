package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// snapshotTable builds a table with segments, tombstones, AND live delta
// rows, so round-trip tests cover every storage region of the format.
func snapshotTable(t *testing.T) (*Program, *Table, [][]string) {
	t.Helper()
	return snapshotTableAt(t, 2)
}

// snapshotTableAt is snapshotTable built at the given parallelism.
func snapshotTableAt(t *testing.T, parallelism int) (*Program, *Table, [][]string) {
	t.Helper()
	L, R := makeTask(t, 53, 3)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:120]), Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Remove([]int{2, 50, 119}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Add(toRows(L[120:140])); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Leave a live delta with a tombstone in it.
	if _, err := tab.Add(toRows(L[140:150])); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Remove([]int{tab.Len() - 5}); err != nil {
		t.Fatal(err)
	}
	return prog, tab, toRows(R)
}

// TestSnapshotRoundTrip: Save -> Load reproduces the table bit-identically
// — same rows, same answers as the original AND as the full-compile
// oracle — and keeps serving mutations afterwards.
func TestSnapshotRoundTrip(t *testing.T) {
	prog, tab, queries := snapshotTable(t)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(buf.Bytes(), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tab.Len() || loaded.RowWidth() != tab.RowWidth() {
		t.Fatalf("loaded %d rows width %d, want %d width %d",
			loaded.Len(), loaded.RowWidth(), tab.Len(), tab.RowWidth())
	}
	if loaded.Generation() != 1 {
		t.Fatalf("loaded table starts at generation %d, want 1", loaded.Generation())
	}
	origRows, loadRows := tab.Rows(), loaded.Rows()
	for i := range origRows {
		for c := range origRows[i] {
			if origRows[i][c] != loadRows[i][c] {
				t.Fatalf("row %d cell %d differs after round trip", i, c)
			}
		}
	}
	want, err := tab.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d differs after round trip: %+v vs %+v", i, got[i], want[i])
		}
	}
	expectOracle(t, prog, loaded, queries, "loaded snapshot")

	// The loaded table keeps full mutability.
	if _, err := loaded.Add(toRows([]string{"fresh row after load"})); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	expectOracle(t, prog, loaded, queries, "loaded snapshot after churn")
}

// TestSnapshotSaveFile: the file form round-trips and replaces atomically.
func TestSnapshotSaveFile(t *testing.T) {
	_, tab, queries := snapshotTable(t)
	path := filepath.Join(t.TempDir(), "table.afjs")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	expectOnlyFile(t, path)
	loaded, err := LoadTableFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tab.MatchRows(context.Background(), queries[:3])
	got, _ := loaded.MatchRows(context.Background(), queries[:3])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d differs via file round trip", i)
		}
	}
}

// TestSnapshotBytesPinned pins the exact bytes Save writes for a
// deterministic table with an IDF-weighted program that went through Add,
// Remove and Compact: a change to the in-memory representation must not
// move a single byte of the version-3 format. The table is built at
// parallelism 1, 2 and 4, since its rows are counted and interned on
// workers, and every build must give the same bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	const want = "cf6d3674ba244ca3811e4ae6f553b683363f5483f60c7d903abc829bef01ec3a"
	for _, par := range []int{1, 2, 4} {
		_, tab, _ := snapshotTableAt(t, par)
		var buf bytes.Buffer
		if err := tab.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("parallelism %d: snapshot bytes moved: sha256 %x (%d bytes), want %s", par, sum, buf.Len(), want)
		}
	}
}

// TestSnapshotMappedSurvivesSaveOverPath: a table booted from a mapped
// snapshot keeps its rows and answers after another table is saved over
// the same path, because SaveFile replaces the file by rename and never
// rewrites the mapped bytes in place.
func TestSnapshotMappedSurvivesSaveOverPath(t *testing.T) {
	prog, tab, queries := snapshotTable(t)
	path := filepath.Join(t.TempDir(), "table.afjs")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	booted, err := LoadTableFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantRows [][]string
	for _, r := range booted.Rows() {
		row := make([]string, len(r))
		for c, cell := range r {
			row[c] = strings.Clone(cell)
		}
		wantRows = append(wantRows, row)
	}
	want, err := booted.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	L, _ := makeTask(t, 53, 3)
	other, err := prog.NewTable(1, toRows(L[200:230]), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if reloaded, err := LoadTableFile(path, Options{}); err != nil || reloaded.Len() != other.Len() {
		t.Fatalf("the path does not hold the second table: %v", err)
	}

	if !reflect.DeepEqual(booted.Rows(), wantRows) {
		t.Fatal("booted table's rows changed after a save over its snapshot path")
	}
	got, err := booted.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: %+v after the save over the path, %+v before", i, got[i], want[i])
		}
	}
}

// expectOnlyFile asserts path's directory holds path and nothing else — no
// temp file left behind by any save.
func expectOnlyFile(t *testing.T, path string) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Errorf("stray file %q left beside the snapshot", e.Name())
		}
	}
	if len(entries) == 0 {
		t.Errorf("snapshot %q missing", path)
	}
}

// TestSnapshotSaveFileConcurrent: several goroutines SaveFile the same
// path while the table mutates under them. No save may fail or collide
// with another on a temp name; the file left under the final name loads,
// holds exactly the rows of ONE state the table passed through, and
// answers like a table built from those rows; no temp file survives.
func TestSnapshotSaveFileConcurrent(t *testing.T) {
	prog, tab, queries := snapshotTable(t)
	L, _ := makeTask(t, 53, 3)
	path := filepath.Join(t.TempDir(), "table.afjs")

	// Every state the table passes through; written by the mutator alone
	// and read only after it has finished.
	states := [][][]string{tab.Rows()}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 40; i++ {
			var err error
			if i%4 == 3 {
				_, err = tab.Remove([]int{i % tab.Len()})
			} else {
				_, err = tab.Add(toRows([]string{L[150+i] + " rev"}))
			}
			if err != nil {
				t.Errorf("mutation %d: %v", i, err)
				return
			}
			states = append(states, tab.Rows())
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for saves := 0; !done.Load() || saves < 3; saves++ {
				if err := tab.SaveFile(path); err != nil {
					t.Errorf("concurrent SaveFile: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	expectOnlyFile(t, path)
	loaded, err := LoadTableFile(path, Options{})
	if err != nil {
		t.Fatalf("the surviving snapshot does not load: %v", err)
	}
	var saved [][]string
	for _, st := range states {
		if reflect.DeepEqual(st, loaded.Rows()) {
			saved = st
			break
		}
	}
	if saved == nil {
		t.Fatalf("loaded %d rows that match no state the table passed through", loaded.Len())
	}
	rebuilt, err := prog.NewTable(1, saved, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rebuilt.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.MatchRows(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: loaded snapshot %+v, table rebuilt from the saved rows %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotRejectsCorrupt: truncations, flipped bits, bad magic, and
// future versions all yield descriptive errors — never a panic, never a
// silently wrong table.
func TestSnapshotRejectsCorrupt(t *testing.T) {
	_, tab, _ := snapshotTable(t)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := LoadTable(valid, Options{}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	load := func(data []byte) error {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadTable panicked: %v", r)
			}
		}()
		_, err := LoadTable(data, Options{})
		return err
	}

	// Truncations at every region boundary and a sweep of prefixes.
	for _, n := range []int{0, 3, 8, 9, 12, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		if err := load(valid[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	if err := load(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Future version.
	bad = append([]byte(nil), valid...)
	bad[4] = snapshotVersion + 1
	if err := load(bad); err == nil {
		t.Error("future version accepted")
	}
	// Body corruption must trip the checksum, wherever it lands.
	for _, off := range []int{16, 64, len(valid)/2 + 3, len(valid) - 2} {
		bad = append([]byte(nil), valid...)
		bad[off] ^= 0x40
		if err := load(bad); err == nil {
			t.Errorf("flipped bit at %d accepted", off)
		}
	}
	// Trailing garbage changes the checksummed body, so it must fail too.
	if err := load(append(append([]byte(nil), valid...), 0, 1, 2)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// FuzzLoadTable: the decoder must never panic, whatever bytes arrive. The
// corpus seeds a real snapshot plus adversarial prefixes so the fuzzer
// starts past the checksum and digs into the structured decoding.
func FuzzLoadTable(f *testing.F) {
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows([]string{
		"2008 lsu tigers football team",
		"2009 lsu tigers baseball team",
		"2008 wisconsin badgers football team",
	}), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := tab.Add(toRows([]string{"2010 oregon ducks football team"})); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// A live delta of four empty one-cell rows, one byte each.
	empties, err := prog.NewTable(1, toRows([]string{"a", "b", "c"}), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := empties.Add(toRows([]string{"", "", "", ""})); err != nil {
		f.Fatal(err)
	}
	var ebuf bytes.Buffer
	if err := empties.Save(&ebuf); err != nil {
		f.Fatal(err)
	}
	if _, err := LoadTable(ebuf.Bytes(), Options{}); err != nil {
		f.Fatalf("a snapshot whose delta is four empty rows does not load: %v", err)
	}
	f.Add(ebuf.Bytes())
	f.Add(badGramSnapshot(f))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("AFJS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := LoadTable(data, Options{})
		if err != nil {
			return
		}
		// The rare mutant that passes the checksum must still be a coherent,
		// queryable table.
		if _, _, err := tab.Match(context.Background(), "lsu tigers football"); err != nil {
			t.Fatalf("loaded table cannot serve: %v", err)
		}
	})
}

// gramProgram is a program whose rows hold 3-gram slot runs under two
// pre-processing options, one IDF- and one equal-weighted.
func gramProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Tokenization: "3G", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.4},
			{Preprocess: "L+RP", Tokenization: "3G", TokenWeights: "EW", Distance: "CD", Threshold: 0.3},
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.35},
		},
		BlockingBeta: 1,
	}
}

// gramTokens lists, per counted 3-gram representation of the table's
// column vocabulary, the tokens that live rows hold, in the order DF
// yields them.
func gramTokens(tab *Table) [][]string {
	var out [][]string
	for _, pre := range textproc.Options() {
		if !tab.cols[0].NeedCounts(pre, tokenize.QGram3) {
			continue
		}
		var toks []string
		for tok := range tab.cols[0].DF(pre, tokenize.QGram3) {
			toks = append(toks, tok)
		}
		out = append(out, toks)
	}
	return out
}

// TestSnapshotAddReusesDictionaryGrams: rows added to a loaded table find
// the 3-gram slots that the snapshot's dictionary interned — a re-added
// record brings no new token, and no token holds two slots — and the
// table answers as a fresh compile of its rows.
func TestSnapshotAddReusesDictionaryGrams(t *testing.T) {
	L, R := makeTask(t, 53, 3)
	prog := gramProgram()
	tab, err := prog.NewTable(1, toRows(L[:100]), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(buf.Bytes(), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := gramTokens(loaded)
	if len(before) != 2 {
		t.Fatalf("%d 3-gram representations, want 2", len(before))
	}
	// Records already in the table: every one of their grams came from the
	// dictionary.
	if _, err := loaded.Add(toRows(L[:10])); err != nil {
		t.Fatal(err)
	}
	if got := gramTokens(loaded); !reflect.DeepEqual(got, before) {
		t.Fatalf("re-adding loaded records changed the 3-gram vocabulary: %d/%d tokens, want %d/%d",
			len(got[0]), len(got[1]), len(before[0]), len(before[1]))
	}
	if _, err := loaded.Add(toRows(L[100:130])); err != nil {
		t.Fatal(err)
	}
	for r, toks := range gramTokens(loaded) {
		for i := 1; i < len(toks); i++ {
			if toks[i] <= toks[i-1] {
				t.Fatalf("representation %d: token %q follows %q: a gram holds two slots", r, toks[i], toks[i-1])
			}
		}
	}
	expectModel(t, prog, loaded, toRows(slices.Compact(slices.Sorted(slices.Values(R)))))
}

// badGramSnapshot returns a checksum-valid snapshot of a 3-gram table
// whose column dictionary holds a 3-gram token of two runes.
func badGramSnapshot(tb testing.TB) []byte {
	tb.Helper()
	tab, err := gramProgram().NewTable(1, toRows([]string{
		"2008 lsu tigers football team",
		"2009 lsu tigers baseball team",
	}), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	// A length-prefixed "##2" is stored three times: in the blocking
	// vocabulary, in the column dictionary and in the IDF statistics, in
	// that order (no stored row string holds '#'). Rewrite the second.
	// "!é" is three bytes and two runes, and sorts where "##2" did.
	tok := []byte("\x03##2")
	first := bytes.Index(data, tok)
	at := first + 1 + bytes.Index(data[first+1:], tok)
	if first < 0 || at == first || bytes.Count(data, tok) != 3 {
		tb.Fatal("the snapshot does not store ##2 three times")
	}
	copy(data[at+1:], "!é")
	binary.LittleEndian.PutUint32(data[5:9], crc32.Checksum(data[snapshotHeaderLen:], snapshotCRC))
	return data
}

// TestSnapshotRejectsShortGram: a 3-gram dictionary token that is not
// three runes fails the load with an error, not a panic.
func TestSnapshotRejectsShortGram(t *testing.T) {
	_, err := LoadTable(badGramSnapshot(t), Options{})
	if err == nil || !strings.Contains(err.Error(), "not three runes") {
		t.Fatalf("LoadTable = %v, want a not-three-runes error", err)
	}
}
