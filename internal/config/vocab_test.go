package config

import (
	"fmt"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// TestDeriveMatchesProfileAndNeverAllocates: a stored row derived from
// its slot run under the vocabulary's live statistics equals, to the bit,
// the Profile a corpus built over the live rows gives it — before and
// after the statistics and the vocabulary move — a Query holding unseen
// tokens agrees with Profile, IDDistances equals Distances on the
// equivalent Profiles, and a warm Derive allocates nothing, even right
// after a mutation.
func TestDeriveMatchesProfileAndNeverAllocates(t *testing.T) {
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
	rows := v.NewRows(0, 0)
	var docs []string // stored rows, by row index
	live := map[int]bool{}
	add := func(ss ...string) {
		for _, s := range ss {
			v.AppendRecord(&rows, s)
			live[len(docs)] = true
			docs = append(docs, s)
		}
		v.Settle()
	}
	queries := []string{"alpha team", "Alpha, alpha beta TEAM unseen", "zzz never seen", "", "gamma squad team"}

	var buf DeriveBuf
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
			var d IDProfile
			v.Derive(&rows, i, AllGroups, &buf, &d)
			p := oracle.Profile(s)
			for _, rep := range v.lay.reps {
				rv := &v.reps[v.lay.rep[rep.Pre][rep.Tok]]
				for wi := 0; wi < numWt; wi++ {
					if !v.lay.need[rep.Pre][rep.Tok][wi] {
						continue
					}
					g, w := d.vec[rep.Pre][rep.Tok][wi], p.vecs[rep.Pre][rep.Tok][wi]
					if int(g.N) != len(w.Tokens) || len(g.IDs) != len(w.Tokens) || !sameBits(g.Sum, w.Sum) || !sameBits(g.Norm, w.Norm) {
						t.Fatalf("%s: row %d %v/%d derived %+v, built %+v", stage, i, rep, wi, g, w)
					}
					for k, id := range g.IDs {
						if tok := rv.toks[rv.order[id]]; tok != w.Tokens[k] || !sameBits(g.W[k], w.W[k]) {
							t.Fatalf("%s: row %d %v/%d token %d derived (%q, %v), built (%q, %v)",
								stage, i, rep, wi, k, tok, g.W[k], w.Tokens[k], w.W[k])
						}
					}
				}
			}
			for _, q := range queries {
				ev.IDDistances(&d, v.Query(q), AllGroups, sc, got)
				ev.Distances(p, oracle.Profile(q), sc, want)
				for fi := range want {
					if !sameBits(got[fi], want[fi]) {
						t.Fatalf("%s: row %d query %q %s: IDDistances %v, Distances %v",
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

	var d IDProfile
	if n := testing.AllocsPerRun(100, func() { v.Derive(&rows, 2, AllGroups, &buf, &d) }); n != 0 {
		t.Errorf("warm Derive: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v.Count(&rows, 0, -1) // N moves: every weight is recomputed
		v.Settle()
		v.Count(&rows, 0, 1)
		v.Settle()
		v.Derive(&rows, 2, AllGroups, &buf, &d)
	}); n != 0 {
		t.Errorf("Derive after a mutation: %.1f allocs, want 0", n)
	}
}
