package config

import (
	"fmt"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// TestPreparedRowMatchesProfileAndNeverAllocates: a stored row prepared
// from its slot run under the vocabulary's live statistics holds, to the
// bit and by slot, the weights, Sum and Norm of the Profile a corpus
// built over the live rows gives it — before and after the statistics
// and the vocabulary move — a query holding unseen tokens scores against
// the rows as Distances does on the equivalent Profiles, and a warm
// prepare, score and release allocate nothing, even right after a
// mutation.
func TestPreparedRowMatchesProfileAndNeverAllocates(t *testing.T) {
	space := []JoinFunction{
		{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.IDF, Dist: JD},
		{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: CJD},
		{Pre: textproc.LowerStemRemovePunct, Tok: tokenize.QGram3, Weight: weights.IDF, Dist: CD},
		{Pre: textproc.LowerStemRemovePunct, Tok: tokenize.QGram3, Weight: weights.IDF, Dist: CCD},
		{Pre: textproc.Lower, Dist: ED},
		{Pre: textproc.LowerRemovePunct, Dist: GED},
	}
	ev := NewEvaluator(space)
	sc := ev.NewScratch()
	v := NewVocab(space)
	rows := v.NewRows(0)
	var docs []string // stored rows, by row index
	live := map[int]bool{}
	add := func(ss ...string) {
		for _, s := range ss {
			appendRecord(v, &rows, s)
			live[len(docs)] = true
			docs = append(docs, s)
		}
		v.Settle()
	}
	queries := []string{"alpha team", "Alpha, alpha beta TEAM unseen", "zzz never seen", "", "gamma squad team"}

	var side Side
	check := func(stage string) {
		t.Helper()
		var liveDocs []string
		for i, s := range docs {
			if live[i] {
				liveDocs = append(liveDocs, s)
			}
		}
		if v.Docs() != len(liveDocs) {
			t.Fatalf("%s: vocabulary counts %d documents, want %d", stage, v.Docs(), len(liveDocs))
		}
		oracle := NewCorpus(space, liveDocs)
		want := make([]float64, len(space))
		got := make([]float64, len(space))
		for i, s := range docs {
			if !live[i] {
				continue
			}
			v.PrepareRow(&side, &rows, i, AllGroups, true)
			p := oracle.Profile(s)
			var row Row
			rows.Get(i, &row)
			for _, rep := range v.lay.reps {
				rv := &v.reps[v.lay.rep[rep.Pre][rep.Tok]]
				for wi := 0; wi < numWt; wi++ {
					if !v.lay.need[rep.Pre][rep.Tok][wi] {
						continue
					}
					g, w := &side.set[rep.Pre][rep.Tok][wi], p.vecs[rep.Pre][rep.Tok][wi]
					slots := row.Slots[rep.Pre][rep.Tok]
					if int(g.N) != len(w.Tokens) || len(slots) != len(w.Tokens) || !sameBits(g.Sum, w.Sum) || !sameBits(g.Norm, w.Norm) {
						t.Fatalf("%s: row %d %v/%d prepared N %d sum %v norm %v, built %+v", stage, i, rep, wi, g.N, g.Sum, g.Norm, w)
					}
					set := 0
					for _, x := range g.W {
						if x != 0 {
							set++
						}
					}
					if set != len(slots) {
						t.Fatalf("%s: row %d %v/%d: %d table entries set, want %d", stage, i, rep, wi, set, len(slots))
					}
					for k, sl := range slots {
						if tok := rv.toks[sl]; tok != w.Tokens[k] || !sameBits(g.W[sl], w.W[k]) {
							t.Fatalf("%s: row %d %v/%d token %d prepared (%q, %v), built (%q, %v)",
								stage, i, rep, wi, k, tok, g.W[sl], w.Tokens[k], w.W[k])
						}
					}
				}
			}
			side.Release()
			for _, q := range queries {
				f := v.PrepareQuery(&side, q, nil, AllGroups)
				ev.RowDistances(&f, &rows, i, AllGroups, nil, sc, got)
				side.Release()
				ev.Distances(p, oracle.Profile(q), sc, want)
				for fi := range want {
					if !sameBits(got[fi], want[fi]) {
						t.Fatalf("%s: row %d query %q %s: RowDistances %v, Distances %v",
							stage, i, q, space[fi].Name(), got[fi], want[fi])
					}
				}
			}
		}
	}

	add("alpha team", "beta team", "gamma team alpha", "delta squad", "alpha alpha team")
	check("initial")
	add("aaa first", "omega last", "mmm middle alpha") // tokens before, between, after
	check("after adds")
	for _, i := range []int{1, 3} { // beta and squad/delta go to df 0
		v.Count(&rows, i, -1)
		live[i] = false
	}
	v.Settle()
	check("after removes")
	add("beta reborn")
	check("after re-adding a df-0 token")

	prefix, tail := rows.Prefix(4), rows.Tail(4)
	for i := 0; i < rows.Len(); i++ {
		var a, b Row
		rows.Get(i, &a)
		if i < 4 {
			prefix.Get(i, &b)
		} else {
			tail.Get(i-4, &b)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("row %d: split storage holds %v, want %v", i, b, a)
		}
	}

	out := make([]float64, len(space))
	score := func() {
		f := v.PrepareRow(&side, &rows, 2, AllGroups, true)
		ev.RowDistances(&f, &rows, 0, AllGroups, nil, sc, out)
		side.Release()
	}
	if n := testing.AllocsPerRun(100, score); n != 0 {
		t.Errorf("warm prepare, score and release: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v.Count(&rows, 0, -1) // N moves: every weight is recomputed
		v.Settle()
		v.Count(&rows, 0, 1)
		v.Settle()
		score()
	}); n != 0 {
		t.Errorf("prepare and score after a mutation: %.1f allocs, want 0", n)
	}
}

// appendRecord stores record s as the next row of rows by the chunked
// builder, one record to a chunk, and counts it live.
func appendRecord(v *Vocab, rows *Rows, s string) {
	var c [1]Counted
	var slots []int32
	v.CountRecord(&c[0], s, nil)
	v.AppendChunk(rows, c[:], &slots, 1)
}
