package config

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
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
	rows := v.NewRows(len(recs), 0)
	for _, s := range recs {
		appendRecord(v, &rows, s)
	}
	v.Settle()
	if rows.lay.nemb != len(space) {
		t.Fatalf("layout holds %d embeddings, want %d", rows.lay.nemb, len(space))
	}
	copied := v.NewRows(0, 0)
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
