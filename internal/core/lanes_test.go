package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
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
