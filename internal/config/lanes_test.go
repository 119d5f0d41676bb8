package config

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// TestRowsWideLanes: an embedding whose counts do not fit int8 is stored
// exactly in wide lanes and every other in narrow ones; Get, AppendRow and
// Prefix keep each where it is, and RowDistances scores either kind, as
// the stored row and as the prepared side, bit-identically to Distances
// on string Profiles.
func TestRowsWideLanes(t *testing.T) {
	space := []JoinFunction{
		{Pre: textproc.Lower, Dist: GED},
		{Pre: textproc.LowerRemovePunct, Dist: GED},
		{Pre: textproc.LowerStem, Dist: GED},
	}
	recs := []string{
		strings.Repeat("a", 300),
		"museum of natural history",
		strings.Repeat("A", 40000),
		"",
		strings.Repeat("ab,", 200),
	}
	wide := []bool{true, false, true, false, true}
	v := NewVocab(space)
	rows := v.NewRows(len(recs))
	for _, s := range recs {
		appendRecord(v, &rows, s)
	}
	v.Settle()
	if rows.lay.nemb != len(space) {
		t.Fatalf("layout holds %d embeddings, want %d", rows.lay.nemb, len(space))
	}
	copied := v.NewRows(0)
	for i := range recs {
		copied.AppendRow(&rows, i)
	}
	for i, s := range recs {
		for e := range rows.lay.nemb {
			for _, st := range []*Rows{&rows, &copied} {
				l := st.lanes(i, e)
				if (l.Wide != nil) != wide[i] || (l.Narrow != nil) == wide[i] {
					t.Fatalf("row %d (%d bytes) embedding %d: wide=%v, want %v", i, len(s), e, l.Wide != nil, wide[i])
				}
			}
		}
	}
	for m := range len(recs) + 1 {
		p := rows.Prefix(m)
		for i := range m {
			if got, want := p.lanes(i, 0), rows.lanes(i, 0); widen(got) != widen(want) || got.Norm != want.Norm {
				t.Fatalf("prefix %d row %d: embedding differs from the full rows'", m, i)
			}
		}
		if n := len(p.wideAt); n > 0 && int(p.wideAt[n-1]) >= m*p.lay.nemb {
			t.Fatalf("prefix %d holds wide position %d", m, p.wideAt[n-1])
		}
	}

	corpus := NewCorpus(space)
	ev := NewEvaluator(space)
	sc := ev.NewScratch()
	got, want := make([]float64, len(space)), make([]float64, len(space))
	var side Side
	queries := append(slices.Clone(recs), strings.Repeat("a", 299), strings.Repeat("b", 70000))
	for _, q := range queries {
		fq := v.PrepareQuery(&side, q, nil, AllGroups)
		for i, s := range recs {
			ev.RowDistances(&fq, &rows, i, AllGroups, nil, sc, got)
			ev.Distances(corpus.Profile(s), corpus.Profile(q), sc, want)
			for fi := range space {
				if math.Float64bits(got[fi]) != math.Float64bits(want[fi]) {
					t.Fatalf("%s on a %d-byte row and a %d-byte query: %v, string path %v", space[fi].Name(), len(s), len(q), got[fi], want[fi])
				}
			}
		}
		side.Release()
	}
	for c := range recs {
		fc := v.PrepareRow(&side, &rows, c, AllGroups, true)
		for i, s := range recs {
			ev.RowDistances(&fc, &rows, i, AllGroups, nil, sc, got)
			ev.Distances(corpus.Profile(recs[c]), corpus.Profile(s), sc, want)
			for fi := range space {
				if math.Float64bits(got[fi]) != math.Float64bits(want[fi]) {
					t.Fatalf("%s between rows %d and %d: %v, string path %v", space[fi].Name(), c, i, got[fi], want[fi])
				}
			}
		}
		side.Release()
	}
	if d := embed.Distance(strings.Repeat("a", 300), strings.Repeat("a", 40000)); d <= 0 || d >= 1 {
		t.Fatalf("distance between the long runs %v, want inside (0, 1)", d)
	}
}

// TestRowsCompactRuns: a run whose counts are all 1 stores none and a run
// with a repeated token stores all of its own; slots stay uint16 until a
// row holds slot 65,536 and then widen in place. Rows stored before the
// widening read the same through the widened storage as through a narrow
// prefix taken before it (Get, and RowDistances as the stored row and as
// the prepared side, to the bit), and AppendRow copies a wide row exactly.
func TestRowsCompactRuns(t *testing.T) {
	space := []JoinFunction{
		{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.IDF, Dist: JD},
		{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: CD},
		{Pre: textproc.Lower, Tok: tokenize.QGram3, Weight: weights.Equal, Dist: DD},
	}
	words := func(k, n int) string {
		var b strings.Builder
		for i := k; i < k+n; i++ {
			fmt.Fprintf(&b, "w%d ", i)
		}
		return b.String()
	}
	v := NewVocab(space)
	rows := v.NewRows(0)
	appendRecord(v, &rows, "x y z")
	if len(rows.counts) != 0 {
		t.Fatalf("an all-ones row stores %d counts, want none", len(rows.counts))
	}
	appendRecord(v, &rows, "aaa aaa b")
	// Words aaa:2 b:1, and 3-grams whose "aaa" repeats in "aaa aaa".
	if got := len(rows.counts); got == 0 || got >= rows.Tokens()-3 {
		t.Fatalf("a row with repeated tokens stores %d counts of %d slots", got, rows.Tokens())
	}
	for k := 0; k < 65000; k += 1000 {
		appendRecord(v, &rows, words(k, 1000))
	}
	v.Settle()
	if rows.wide {
		t.Fatal("slots widened before any reached 65,536")
	}
	narrow := rows.Prefix(rows.Len())
	appendRecord(v, &rows, words(65000, 1000))
	v.Settle()
	if !rows.wide || narrow.wide {
		t.Fatalf("after slot 65,535: rows wide %v, earlier prefix wide %v; want true, false", rows.wide, narrow.wide)
	}
	ev := NewEvaluator(space)
	sc := ev.NewScratch()
	var side Side
	got, want := make([]float64, len(space)), make([]float64, len(space))
	for i := 0; i < narrow.Len(); i++ {
		var a, b Row
		rows.Get(i, &a)
		narrow.Get(i, &b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("row %d reads differently once widened", i)
		}
		compare := func(what string) {
			t.Helper()
			for fi := range got {
				if !sameBits(got[fi], want[fi]) {
					t.Fatalf("row %d %s: %s %v widened, %v narrow", i, what, space[fi].Name(), got[fi], want[fi])
				}
			}
		}
		for _, l := range []bool{true, false} {
			f := v.PrepareRow(&side, &rows, rows.Len()-1, AllGroups, l)
			ev.RowDistances(&f, &rows, i, AllGroups, nil, sc, got)
			ev.RowDistances(&f, &narrow, i, AllGroups, nil, sc, want)
			side.Release()
			compare(fmt.Sprintf("stored, l=%v", !l))
			f = v.PrepareRow(&side, &rows, i, AllGroups, l)
			ev.RowDistances(&f, &rows, 1, AllGroups, nil, sc, got)
			side.Release()
			f = v.PrepareRow(&side, &narrow, i, AllGroups, l)
			ev.RowDistances(&f, &rows, 1, AllGroups, nil, sc, want)
			side.Release()
			compare(fmt.Sprintf("prepared, l=%v", l))
		}
	}
	copied := v.NewRows(0)
	copied.AppendRow(&rows, rows.Len()-1)
	var a, b Row
	rows.Get(rows.Len()-1, &a)
	copied.Get(0, &b)
	if !copied.wide || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("AppendRow of a wide row: wide %v, same row %v", copied.wide, fmt.Sprint(a) == fmt.Sprint(b))
	}
}
