package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// stringPairs is the pairSource that learning ran before it scored on id
// rows, kept as the oracle of idPairs: full Profiles from one Corpus over
// left ∪ right, scored by Evaluator.Distances. It returns no learn rows.
func stringPairs(space []config.JoinFunction, parallelism int, left, right []string) (bindPairs, *config.ProfileArena) {
	corpus := config.NewCorpus(space, left, right)
	profL := corpus.Profiles(left, parallelism)
	profR := profL
	if right != nil {
		profR = corpus.Profiles(right, parallelism)
	}
	ev := config.NewEvaluator(space)
	return func(lrCand, llCand [][]int32) func() pairEval {
		return func() pairEval {
			sc := ev.NewScratch()
			return pairEval{
				lr: func(r, ci int, _, out []float64) {
					ev.Distances(profL[lrCand[r][ci]], profR[r], sc, out)
				},
				ll: func(l, ci int, _ config.GroupMask, _, out []float64) {
					ev.Distances(profL[l], profL[llCand[l][ci]], sc, out)
				},
			}
		}
	}, nil
}

// resultLines renders everything a learn run decides, with every float as
// its bits: the program and its thresholds, the estimates and the greedy
// trace, the column weights, and every join's left id, distance,
// precision, configuration and iteration.
func resultLines(r *Result) []string {
	b := math.Float64bits
	var out []string
	for _, c := range r.Program {
		out = append(out, fmt.Sprintf("config %s θ %016x", c.Function.Name(), b(c.Threshold)))
	}
	out = append(out, fmt.Sprintf("estimates P %016x R %016x", b(r.EstPrecision), b(r.EstRecall)))
	for _, it := range r.Trace {
		out = append(out, fmt.Sprintf("iteration %s θ %016x P %016x R %016x joined %d",
			it.Config.Function.Name(), b(it.Config.Threshold), b(it.EstPrecision), b(it.EstRecall), it.Joined))
	}
	for i, c := range r.Columns {
		out = append(out, fmt.Sprintf("column %d weight %016x", c, b(r.Weights[i])))
	}
	for _, j := range r.Joins {
		out = append(out, fmt.Sprintf("join r %d l %d d %016x p %016x config %d iteration %d",
			j.Right, j.Left, b(j.Distance), b(j.Precision), j.Config, j.Iteration))
	}
	return out
}

func sameResult(t *testing.T, where string, got, want *Result) {
	t.Helper()
	g, w := resultLines(got), resultLines(want)
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Fatalf("%s: %d lines, want %d; first difference at line %d:\ngot  %q\nwant %q",
				where, len(g), len(w), i, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
		}
	}
	if len(w) == 0 || len(want.Joins) == 0 {
		t.Fatalf("%s: the string path learned nothing to compare", where)
	}
}

// TestJoinsMatchStringPath: JoinTables, SelfJoin and
// JoinMultiColumnTables, which score on learn-time id rows, give the
// result of the same engine scoring string Profiles (stringPairs) bit for
// bit, on the five learn tasks of the benchmark (0, 2, 4, 14, 20; seed 1)
// and a multi-column benchgen task, at parallelism 1 and 4.
func TestJoinsMatchStringPath(t *testing.T) {
	mtask := benchgen.MultiColumnTask(0, benchgen.Options{Seed: 1, Scale: 0.2})
	for _, par := range []int{1, 4} {
		opt := Options{Parallelism: par}
		for _, id := range []int{0, 2, 4, 14, 20} {
			task := benchgen.SingleColumnTask(id, benchgen.Options{Seed: 1, Scale: 1})
			left, right := task.LeftKey(), task.RightKey()
			got, err := JoinTables(left, right, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := joinTables(left, right, opt, stringPairs, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("JoinTables task %d par %d", id, par), got, want)

			// L ∪ R holds R's fuzzy duplicates of L's records.
			both := append(append([]string(nil), left...), right...)
			if got, err = SelfJoin(both, opt); err != nil {
				t.Fatal(err)
			}
			if want, err = selfJoin(both, opt, stringPairs); err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("SelfJoin task %d par %d", id, par), got, want)
		}
		lc, rc := mtask.Left.AllColumns(), mtask.Right.AllColumns()
		got, err := JoinMultiColumnTables(lc, rc, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := joinMultiColumn(lc, rc, opt, stringPairs)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("JoinMultiColumnTables %s par %d", mtask.Name, par), got, want)
	}
}

// TestLearnMatcherMatchesCompile: the Matcher Learn builds from what the
// search made over L answers every query exactly as a Compile of the same
// program over the same L, and saves the same snapshot bytes. It covers
// the five learn tasks of the benchmark (seed 1, scale 1), a run with
// negative rules disabled, and an empty R (which learns nothing and
// compiles the empty program).
func TestLearnMatcherMatchesCompile(t *testing.T) {
	ctx := context.Background()
	check := func(name string, left, right []string, opt Options) {
		t.Helper()
		res, m, err := Learn(left, right, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.ToProgram().Compile(left, opt)
		if err != nil {
			t.Fatal(err)
		}
		queries := append([]string(nil), right...)
		for i, r := range right {
			if i%3 == 0 && len(r) > 2 { // perturbed: a dropped rune and a stray word
				queries = append(queries, r[:len(r)/2]+r[len(r)/2+1:], r+" zqxj")
			}
		}
		queries = append(queries, left[0], "", "a", "ß#x 日本語")
		for _, q := range queries {
			g, gok, err := m.Match(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			w, wok, err := want.Match(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if g != w || gok != wok {
				t.Fatalf("%s: Match(%q) = %+v %v, Compile gives %+v %v", name, q, g, gok, w, wok)
			}
		}
		var gb, wb bytes.Buffer
		if err := m.Save(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Save(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("%s: Learn's matcher saves %d bytes that differ from Compile's %d", name, gb.Len(), wb.Len())
		}
	}
	for _, id := range []int{0, 2, 4, 14, 20} {
		task := benchgen.SingleColumnTask(id, benchgen.Options{Seed: 1, Scale: 1})
		check(fmt.Sprintf("task %d", id), task.LeftKey(), task.RightKey(), Options{})
	}
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 1})
	check("task 0 without negative rules", task.LeftKey(), task.RightKey(), Options{DisableNegativeRules: true})
	check("empty right", task.LeftKey(), nil, Options{})
}
