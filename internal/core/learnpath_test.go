package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

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

// FuzzLearn decodes bytes into a tiny task, L and R of 2–40 records over
// a small alphabet (R's cells are edits of L's), one to four functions of
// the space, τ, β, s and the ablation flags, and holds JoinTables, SelfJoin
// (over L ∪ R) or JoinMultiColumnTables (2–3 columns, at the weights it
// chose) to learnRef, bit for bit, at parallelism 1 and 4.
func FuzzLearn(f *testing.F) {
	f.Add([]byte{0}) // the seeds of testdata/fuzz/FuzzLearn kill the learn-path faults
	space := config.Space()
	f.Fuzz(func(t *testing.T, data []byte) {
		x := uint64(len(data))
		next := func() int { // data, then a fixed pseudo-random tail
			if len(data) == 0 {
				x = x*6364136223846793005 + 1442695040888963407
				return int(x >> 56)
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		text := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = "ab c-A."[next()%7]
			}
			return string(b)
		}
		mode, flags := next()%3, next()
		opt := Options{PrecisionTarget: float64(next()%21) / 20, ThresholdSteps: 1 + next()%12,
			BlockingBeta: float64(1+next()%8) / 4, WeightSteps: 2 + next()%3,
			SingleConfiguration: flags&1 != 0, DisableNegativeRules: flags&2 != 0}
		for range 1 + next()%4 {
			opt.Space = append(opt.Space, space[next()%len(space)])
		}
		m := 1 // columns
		if mode == 2 {
			m = 2 + flags>>2&1
		}
		lc, rc := make([][]string, m), make([][]string, m)
		nL, nR := 2+next()%39, 2+next()%39
		for range nL {
			for j := range lc {
				lc[j] = append(lc[j], text(next()%7))
			}
		}
		for range nR {
			src := next() % nL
			for j, s := range lc { // s[src] with text inserted at i and up to 2 bytes dropped
				i := next() % (len(s[src]) + 1)
				rc[j] = append(rc[j], s[src][:i]+text(next()%3)+s[src][min(i+next()%3, len(s[src])):])
			}
		}
		if mode == 1 { // a self-join over L ∪ R
			lc[0], rc = append(lc[0], rc[0]...), nil
		}
		var want []string
		for _, par := range []int{1, 4} {
			opt.Parallelism = par
			var res *Result
			var err error
			switch {
			case mode == 1:
				res, err = SelfJoin(lc[0], opt)
			case m == 1:
				res, err = JoinTables(lc[0], rc[0], opt)
			default:
				res, err = JoinMultiColumnTables(lc, rc, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				var w []float64 // the column weights the search chose
				if m > 1 {
					w = make([]float64, m)
					for i, c := range res.Columns {
						w[c] = res.Weights[i]
					}
				}
				ref := refRun(lc, rc, w, opt)
				ref.Columns, ref.Weights = res.Columns, res.Weights
				want = resultLines(ref)
			}
			if got := resultLines(res); !slices.Equal(got, want) {
				t.Fatalf("mode %d, %+v:\nL %q\nR %q\nengine:\n%s\nreference:\n%s", mode, opt, lc, rc,
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	})
}
