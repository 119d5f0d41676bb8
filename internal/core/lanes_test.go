package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

// TestNewTableSlotCapacity: a table build sizes its slot runs once, for
// the rows it stores, so the ledger table's slot and count storage ends
// within 10 % of what its rows hold instead of up to twice it.
func TestNewTableSlotCapacity(t *testing.T) {
	prog, keys := ledgerProgram(t)
	tab, err := prog.NewTable(1, oneCellRows(keys), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range tab.store.segs {
		for j := range pl.cols {
			rows := &pl.cols[j]
			n, c := rows.Tokens(), rows.TokenCap()
			t.Logf("column %d: %d slot entries, capacity %d (%.1f %% spare)", j, n, c, 100*float64(c-n)/float64(n))
			if c < n || c > n+n/10 {
				t.Errorf("column %d: capacity %d for %d slot entries, want within 10 %%", j, c, n)
			}
		}
	}
}

// TestLedgerRowBytes counts, exactly, the bytes of the ledger table's
// slot-run arrays: two int32 run offsets a run, a uint16 slot a token and
// a uint32 count a token of each run whose counts are not all 1, with at
// most 10 % spare capacity. Against the layout that stored an int32 slot
// and a uint32 count a token and one offset, a Sum and a Norm a run, that
// is at least 40 % fewer bytes a row.
func TestLedgerRowBytes(t *testing.T) {
	prog, keys := ledgerProgram(t)
	tab, err := prog.NewTable(1, oneCellRows(keys), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var runs, tokens, counted, got int
	var row config.Row
	for _, pl := range tab.store.segs {
		for j := range pl.cols {
			rows := &pl.cols[j]
			for i := 0; i < rows.Len(); i++ {
				rows.Get(i, &row)
				for pi := range row.Slots {
					for ti, slots := range row.Slots[pi] {
						if !tab.store.cols[j].NeedCounts(textproc.Option(pi), tokenize.Option(ti)) {
							continue
						}
						runs++
						tokens += len(slots)
						for _, c := range row.Counts[pi][ti] {
							if c != 1 {
								counted += len(slots)
								break
							}
						}
					}
				}
			}
			got += rows.RunBytes()
		}
	}
	n := len(keys)
	want := 8*(runs+1) + 2*tokens + 4*counted
	old := 4*(runs+1) + 16*runs + 8*tokens
	t.Logf("%d rows, %d runs, %d slot entries, %d counted: %d B a row (%d B by length), %d B a row in the old layout",
		n, runs, tokens, counted, got/n, want/n, old/n)
	if got < want || got > want+want/10 {
		t.Errorf("slot-run arrays take %d bytes, want %d to %d", got, want, want+want/10)
	}
	if 10*got > 6*old {
		t.Errorf("slot-run arrays take %d bytes, more than 60 %% of the old layout's %d", got, old)
	}
}

// TestLedgerSnapshotBytes: the ledger table's snapshot takes at most 920
// bytes a row: it stores no float, no statistics and no count for a run
// of ones.
func TestLedgerSnapshotBytes(t *testing.T) {
	prog, keys := ledgerProgram(t)
	tab, err := prog.NewTable(1, oneCellRows(keys), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	perRow := float64(buf.Len()) / float64(len(keys))
	t.Logf("%d rows: %d bytes, %.1f B a row", len(keys), buf.Len(), perRow)
	if perRow > 920 {
		t.Errorf("the ledger table's snapshot takes %.1f B a row, want at most 920", perRow)
	}
}

// TestHostileEmbeddingRows: rows whose trigram counts do not fit int8
// (300 copies of "aaa" fall in one bucket) or int16 (40,000) keep their
// exact counts in wide lanes. Through NewTable, Add, SaveFile and
// LoadTableFile, every match a GED program reports carries the string
// oracle's distance (JoinFunction.Distance on Profiles) bit for bit.
func TestHostileEmbeddingRows(t *testing.T) {
	prog := &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Distance: "GED", Threshold: 0.05},
			{Preprocess: "L+S", Distance: "GED", Threshold: 0.5},
		},
		BlockingBeta: 1,
	}
	configs, err := prog.configurations()
	if err != nil {
		t.Fatal(err)
	}
	space := make([]config.JoinFunction, len(configs))
	for i, c := range configs {
		space[i] = c.Function
	}
	corpus := config.NewCorpus(space)

	rows := [][]string{
		{strings.Repeat("a", 300)},
		{"museum of natural history"},
		{strings.Repeat("a", 40000)},
		{strings.Repeat("ab", 200)},
		{"aaa aaa"},
	}
	added := [][]string{{strings.Repeat("a", 301)}, {strings.Repeat("b", 40000)}}
	queries := []string{
		strings.Repeat("a", 299), strings.Repeat("a", 39990), strings.Repeat("ab", 199),
		strings.Repeat("b", 39999), strings.Repeat("a", 4), "museum of natural histroy",
	}
	check := func(what string, tab *Table) []Match {
		t.Helper()
		var got []Match
		for _, q := range queries {
			m, _, err := tab.Match(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m)
			if m.Left < 0 {
				if len(q) > 100 {
					t.Fatalf("%s: %d-byte query matched nothing", what, len(q))
				}
				continue
			}
			row, err := tab.Row(m.Left)
			if err != nil {
				t.Fatal(err)
			}
			want := space[m.Config].Distance(corpus.Profile(row[0]), corpus.Profile(q))
			if math.Float64bits(m.Distance) != math.Float64bits(want) {
				t.Fatalf("%s: %d-byte query on a %d-byte row: distance %v, string oracle %v",
					what, len(q), len(row[0]), m.Distance, want)
			}
		}
		return got
	}

	tab, err := prog.NewTable(1, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Add(added); err != nil {
		t.Fatal(err)
	}
	want := check("built", tab)
	path := filepath.Join(t.TempDir(), "hostile.afjs")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range check("loaded", loaded) {
		if m != want[i] {
			t.Fatalf("loaded table answers %+v for query %d, saved table %+v", m, i, want[i])
		}
	}
}

// TestHostileCountRows: rows whose token counts are past 1 and past 255
// (repeated 3-grams and words) are stored as counted runs beside all-ones
// ones, and rows that take a column's vocabulary past 65,536 word slots
// through Add widen the delta's slots. Built, after Add, and through
// SaveFile and LoadTableFile, every answer of a program of IDF- and
// equal-weight set functions is the pointer oracle's (string Profiles).
func TestHostileCountRows(t *testing.T) {
	prog := &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Tokenization: "3G", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.5},
			{Preprocess: "L", Tokenization: "3G", TokenWeights: "EW", Distance: "CD", Threshold: 0.3},
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "EW", Distance: "JD", Threshold: 0.5},
			{Preprocess: "L+S", Tokenization: "SP", TokenWeights: "IDFW", Distance: "CD", Threshold: 0.4},
		},
		BlockingBeta: 1,
	}
	// words returns n distinct words from the k-th on, space-separated.
	words := func(k, n int) string {
		var b strings.Builder
		for i := k; i < k+n; i++ {
			fmt.Fprintf(&b, "w%d ", i)
		}
		return b.String()
	}
	rows := toRows([]string{
		strings.Repeat("a", 300),
		"museum of natural history",
		strings.Repeat("ab", 200),
		"aaa aaa",
		strings.Repeat("abc ", 300),
	})
	queries := toRows([]string{
		strings.Repeat("a", 299), strings.Repeat("ab", 199), "aaa aaa aaa", strings.Repeat("abc ", 290),
		strings.Repeat("a", 302), strings.Repeat("xyz ", 279), "museum of natural histroy",
		words(501, 99), words(69901, 98) + "w1",
	})
	tab, err := prog.NewTable(1, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expectModel(t, prog, tab, queries)
	if _, err := tab.Add(toRows([]string{strings.Repeat("a", 301), strings.Repeat("xyz ", 280)})); err != nil {
		t.Fatal(err)
	}
	expectModel(t, prog, tab, queries)
	// 700 rows of 100 fresh words: the last rows' slots pass 65,535.
	wide := make([]string, 700)
	for i := range wide {
		wide[i] = words(100*i, 100)
	}
	if _, err := tab.Add(toRows(wide)); err != nil {
		t.Fatal(err)
	}
	expectModel(t, prog, tab, queries)
	path := filepath.Join(t.TempDir(), "hostile.afjs")
	if err := tab.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTableFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	expectModel(t, prog, loaded, queries)
	// Not vacuous: the counted rows and the widened rows answer.
	for _, q := range []string{strings.Repeat("a", 299), strings.Repeat("xyz ", 279), queries[len(queries)-1][0]} {
		if m, _, err := loaded.Match(context.Background(), q); err != nil || m.Left < 0 {
			t.Fatalf("%d-byte query: match %+v, %v; want a joined row", len(q), m, err)
		}
	}
}

// TestSnapshotRejectsBadLanes: a snapshot's wide embedding lanes are
// checked, not trusted. A lane width other than 1 or 4, wide lanes whose
// counts all fit int8 (the 1-byte form is the only one Save writes for
// them) and counts no string could embed to, whose squared norm would
// overflow, each fail the load with an error; so does the version-2
// header.
func TestSnapshotRejectsBadLanes(t *testing.T) {
	long := strings.Repeat("a", 300)
	prog := &Program{
		Version:        1,
		Configurations: []ConfigurationSpec{{Preprocess: "L", Distance: "GED", Threshold: 0.3}},
		BlockingBeta:   1,
	}
	tab, err := prog.NewTable(1, [][]string{{long}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	v := embed.Embed(long)
	stored := []byte{4}
	for _, x := range v {
		stored = binary.LittleEndian.AppendUint32(stored, uint32(x))
	}
	at := bytes.Index(valid, stored)
	if at < 0 || bytes.Count(valid, stored) != 1 {
		t.Fatal("the snapshot does not store the row's wide lanes once")
	}
	if _, err := LoadTable(valid, Options{}); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
	// A version-2 file stores float64 embeddings: it is refused by version.
	old := bytes.Clone(valid)
	old[4] = 2
	if _, err := LoadTable(old, Options{}); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 2") {
		t.Errorf("version-2 header: LoadTable = %v, want the unsupported-version error", err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(lanes []byte)
	}{
		{"width 2", "lane width 2", func(lanes []byte) { lanes[0] = 2 }},
		{"fits int8", "out of range", func(lanes []byte) {
			clear(lanes[1:])
			lanes[1] = 7
		}},
		{"overflows", "out of range", func(lanes []byte) {
			for d := range embed.Dim {
				binary.LittleEndian.PutUint32(lanes[1+4*d:], math.MaxInt32)
			}
		}},
	} {
		data := bytes.Clone(valid)
		tc.edit(data[at : at+len(stored)])
		binary.LittleEndian.PutUint32(data[5:9], crc32.Checksum(data[snapshotHeaderLen:], snapshotCRC))
		if _, err := LoadTable(data, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadTable = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
