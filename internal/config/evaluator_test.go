package config

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randRecord assembles a record from a vocabulary that exercises
// stemming, punctuation removal, q-gram overlaps, and empty strings.
func randRecord(rng *rand.Rand) string {
	vocab := []string{
		"northern", "nothern", "museum", "museums", "institute", "of",
		"history", "Hist.", "O'Brien-Smith", "2003", "alpha", "squad",
		"unit", "running", "runner", "ran", "straße", "café",
	}
	n := rng.Intn(7)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = vocab[rng.Intn(len(vocab))]
	}
	return strings.Join(parts, " ")
}

// TestEvaluatorMatchesDistance: the fused Evaluator must be bit-identical
// to JoinFunction.Distance for every function of the full and extended
// spaces over randomized record pairs — the equivalence that lets the
// engine switch from function-major to pair-major evaluation.
func TestEvaluatorMatchesDistance(t *testing.T) {
	spaces := map[string][]JoinFunction{
		"Space":         Space(),
		"ExtendedSpace": ExtendedSpace(),
		"ReducedSpace":  ReducedSpace(),
		"SpaceOfSize17": SpaceOfSize(17),
	}
	for name, space := range spaces {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var corpusRecs []string
			for i := 0; i < 40; i++ {
				corpusRecs = append(corpusRecs, randRecord(rng))
			}
			corpus := NewCorpus(space, corpusRecs)
			profs := corpus.Profiles(corpusRecs, 1)

			ev := NewEvaluator(space)
			if ev.NumFunctions() != len(space) {
				t.Fatalf("NumFunctions = %d, want %d", ev.NumFunctions(), len(space))
			}
			sc := ev.NewScratch()
			out := make([]float64, len(space))
			for trial := 0; trial < 300; trial++ {
				l := profs[rng.Intn(len(profs))]
				r := profs[rng.Intn(len(profs))]
				ev.Distances(l, r, sc, out)
				for fi, f := range space {
					if want := f.Distance(l, r); out[fi] != want {
						t.Fatalf("trial %d fn %s (l=%q r=%q): fused %v != single %v",
							trial, f.Name(), l.Raw, r.Raw, out[fi], want)
					}
				}
			}
		})
	}
}

// TestEvaluatorGroupCounts pins the fusion factor the refactor is built
// on: the 140-function space must collapse to 16 set merges, 4 char
// groups, and 4 embedding groups per pair.
func TestEvaluatorGroupCounts(t *testing.T) {
	ev := NewEvaluator(Space())
	if len(ev.set) != 16 {
		t.Errorf("set plans = %d, want 16 (4 pre × 2 tok × 2 weights)", len(ev.set))
	}
	if len(ev.char) != 4 {
		t.Errorf("char plans = %d, want 4 (one per pre)", len(ev.char))
	}
	if len(ev.emb) != 4 {
		t.Errorf("embedding plans = %d, want 4 (one per pre)", len(ev.emb))
	}
	for _, g := range ev.set {
		if len(g.fns) != 8 {
			t.Errorf("set plan %v/%v/%v fuses %d functions, want 8", g.pre, g.tok, g.wt, len(g.fns))
		}
	}
}

// TestEvaluatorDuplicateFunctions: a space listing the same function
// twice must fill both output slots.
func TestEvaluatorDuplicateFunctions(t *testing.T) {
	f := Space()[0]
	space := []JoinFunction{f, f}
	corpus := NewCorpus(space, []string{"a b", "a c"})
	profs := corpus.Profiles([]string{"a b", "a c"}, 1)
	ev := NewEvaluator(space)
	out := []float64{-1, -1}
	ev.Distances(profs[0], profs[1], ev.NewScratch(), out)
	if out[0] != out[1] || out[0] != f.Distance(profs[0], profs[1]) {
		t.Fatalf("duplicate slots differ: %v", out)
	}
}

// TestRowDistancesCut: under per-function cuts, RowDistances gives every
// function its uncut value, bit for bit, or +Inf, and +Inf only to a
// char- or set-based function whose uncut value is past its cut. The cuts
// mix 0, ±Inf, the uncut value itself and random values, so groups whose
// strings coincide get different verdicts, and a group that copied the
// result of a skipped one would read +Inf within its cut. Every other
// call bounds set groups too, reading the run sums its kernels stored in
// a SumCache (cold for a row's first kernel, warm after). Each pair is
// scored right after a decoy pair on the same scratch.
func TestRowDistancesCut(t *testing.T) {
	for name, space := range map[string][]JoinFunction{"Space": Space(), "ExtendedSpace": ExtendedSpace()} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var recs []string
			for i := 0; i < 40; i++ {
				recs = append(recs, randRecord(rng))
			}
			ev := NewEvaluator(space)
			sc := ev.NewScratch()
			a := LearnProfiles(space, 1, recs)
			var side Side
			full := make([]float64, len(space))
			got := make([]float64, len(space))
			cut := make([]float64, len(space))
			sums := a.v.NewSumCache()
			sums.Fit(len(recs), 1)
			for i := range recs {
				f := a.v.PrepareRow(&side, &a.rows, i, AllGroups, i%2 == 0)
				for j := range recs {
					ev.RowDistances(&f, &a.rows, j, AllGroups, nil, sc, full)
					for trial := 0; trial < 4; trial++ {
						for fi := range cut {
							switch rng.Intn(5) {
							case 0:
								cut[fi] = 0
							case 1:
								cut[fi] = math.Inf(1)
							case 2:
								cut[fi] = math.Inf(-1)
							case 3:
								cut[fi] = full[fi]
							default:
								cut[fi] = rng.Float64()
							}
						}
						c := &Cut{D: cut}
						if trial%2 == 0 {
							c.Sums, c.Row = sums, j
						}
						ev.RowDistances(&f, &a.rows, rng.Intn(len(recs)), AllGroups, nil, sc, got)
						ev.RowDistances(&f, &a.rows, j, AllGroups, c, sc, got)
						for fi, fn := range space {
							if !sameBits(got[fi], full[fi]) && (!math.IsInf(got[fi], 1) || fn.Dist.Class() == EmbeddingBased || full[fi] <= cut[fi]) {
								t.Fatalf("%s between %q and %q, cut %v: got %v, uncut %v", fn.Name(), recs[i], recs[j], cut[fi], got[fi], full[fi])
							}
						}
					}
				}
				side.Release()
			}
			if scored, skipped := sc.CharWork(); scored == 0 || skipped == 0 {
				t.Fatalf("%d char groups scored, %d skipped: the cuts exercised nothing", scored, skipped)
			}
			if scored, skipped := sc.SetWork(); scored == 0 || skipped == 0 {
				t.Fatalf("%d set groups scored, %d skipped: the cuts exercised nothing", scored, skipped)
			}
		})
	}
}

// TestRowDistancesMask: RowDistances under a group mask fills exactly the
// functions whose group the mask selects, with the values of an unmasked
// call, and leaves every other slot untouched; unmasked, it equals
// Distances on string profiles bit for bit. Every pair is prepared under
// the mask it is scored with, in each orientation a caller uses:
//   - a learn row prepared as l against a learn row, and as r;
//   - a stored row as l against a prepared query as r, the query with a
//     token no row holds, so masked copying crosses the out-of-vocabulary
//     path;
//   - a prepared center as l against a stored row as r;
//
// and the table cases again after Add and Remove have grown the
// vocabulary past the size of the tables an earlier prepare sized.
func TestRowDistancesMask(t *testing.T) {
	spaces := map[string][]JoinFunction{
		"Space":         Space(),
		"ExtendedSpace": ExtendedSpace(),
		"ReducedSpace":  ReducedSpace(),
	}
	const untouched = -7.0
	for name, space := range spaces {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var recs []string
			for i := 0; i < 30; i++ {
				recs = append(recs, randRecord(rng))
			}
			ev := NewEvaluator(space)
			sc := ev.NewScratch()
			ref := make([]float64, len(space))
			want := make([]float64, len(space))
			got := make([]float64, len(space))
			// randMask ORs the groups of a random subset of functions, as
			// learning's ball pass does, or draws raw bits.
			randMask := func() GroupMask {
				if rng.Intn(4) == 0 {
					return GroupMask(rng.Uint64())
				}
				var m GroupMask
				for fi := range space {
					if rng.Intn(3) == 0 {
						m |= ev.Group(fi)
					}
				}
				return m
			}
			// check scores one pair under random masks, each time right
			// after scoring a decoy pair on the same scratch and Side, so a
			// group that copied a result its mask did not score would read
			// the decoy's, and a table the decoy left uncleared would
			// pollute the pair. The unmasked scores must equal ref.
			type scorer func(mask GroupMask, out []float64)
			check := func(what string, score, decoy scorer) {
				t.Helper()
				score(AllGroups, want)
				for fi, fn := range space {
					if !sameBits(want[fi], ref[fi]) {
						t.Fatalf("%s, fn %s: got %v, Distances %v", what, fn.Name(), want[fi], ref[fi])
					}
				}
				for trial := 0; trial < 8; trial++ {
					mask := randMask()
					decoy(AllGroups, got)
					for fi := range got {
						got[fi] = untouched
					}
					score(mask, got)
					for fi, fn := range space {
						exp := untouched
						if ev.Group(fi)&mask != 0 {
							exp = want[fi]
						}
						if !sameBits(got[fi], exp) {
							t.Fatalf("%s, mask %#x, fn %s: got %v, want %v", what, mask, fn.Name(), got[fi], exp)
						}
					}
				}
			}
			var side Side

			learned := LearnProfiles(space, 1, recs)
			profs := NewCorpus(space, recs).Profiles(recs, 1)
			learnPair := func(fixed, other int, l bool) scorer {
				return func(mask GroupMask, out []float64) {
					f := learned.v.PrepareRow(&side, &learned.rows, fixed, mask, l)
					ev.RowDistances(&f, &learned.rows, other, mask, nil, sc, out)
					side.Release()
				}
			}
			for i := range learned.Len() {
				j, k := rng.Intn(learned.Len()), rng.Intn(learned.Len())
				ev.Distances(profs[i], profs[j], sc, ref)
				check(fmt.Sprintf("learn row %q as l, row %q", recs[i], recs[j]), learnPair(i, j, true), learnPair(k, i, true))
				check(fmt.Sprintf("learn row %q, row %q as r", recs[i], recs[j]), learnPair(j, i, false), learnPair(i, k, false))
			}

			v := NewVocab(space)
			rows := v.NewRows(0)
			var stored []string
			var live []bool
			add := func(ss ...string) {
				for _, s := range ss {
					appendRecord(v, &rows, s)
					stored = append(stored, s)
					live = append(live, true)
				}
				v.Settle()
			}
			queryPair := func(q string, row int) scorer {
				return func(mask GroupMask, out []float64) {
					f := v.PrepareQuery(&side, q, nil, mask)
					ev.RowDistances(&f, &rows, row, mask, nil, sc, out)
					side.Release()
				}
			}
			centerPair := func(center, row int) scorer {
				return func(mask GroupMask, out []float64) {
					f := v.PrepareRow(&side, &rows, center, mask, true)
					ev.RowDistances(&f, &rows, row, mask, nil, sc, out)
					side.Release()
				}
			}
			tableChecks := func(stage string) {
				t.Helper()
				var liveIdx []int
				var liveRecs []string
				for i, s := range stored {
					if live[i] {
						liveIdx = append(liveIdx, i)
						liveRecs = append(liveRecs, s)
					}
				}
				oracle := NewCorpus(space, liveRecs)
				for _, i := range liveIdx {
					j := liveIdx[rng.Intn(len(liveIdx))]
					q := recs[rng.Intn(len(recs))] + " zqxj"
					decoy := recs[rng.Intn(len(recs))]
					ev.Distances(oracle.Profile(stored[i]), oracle.Profile(q), sc, ref)
					check(fmt.Sprintf("%s: row %q as l, query %q", stage, stored[i], q), queryPair(q, i), queryPair(decoy, j))
					ev.Distances(oracle.Profile(stored[i]), oracle.Profile(stored[j]), sc, ref)
					check(fmt.Sprintf("%s: center %q, row %q as r", stage, stored[i], stored[j]), centerPair(i, j), centerPair(j, i))
				}
			}
			add(recs[:15]...)
			tableChecks("initial")
			// Grow the vocabulary with tokens no prepare has seen, then
			// drop rows so some slots fall to df 0.
			var grown []string
			for i := 15; i < len(recs); i++ {
				grown = append(grown, fmt.Sprintf("%s kw%dx vq%d", recs[i], i, i*7))
			}
			add(grown...)
			for _, i := range []int{1, 4, 20} {
				v.Count(&rows, i, -1)
				live[i] = false
			}
			v.Settle()
			tableChecks("after Add and Remove")
		})
	}
}

// FuzzEvaluator cross-checks fused vs single-function scoring on
// arbitrary string pairs under the extended space (every kernel family),
// and the id-space entry points against the string Distances: a stored
// row against a prepared query, a prepared center against a stored row,
// learn rows prepared on either side, and the table cases again after
// the vocabulary grew and shrank past an earlier prepare.
func FuzzEvaluator(f *testing.F) {
	f.Add("north museum of history", "nothern museum of history")
	f.Add("", "x")
	f.Add("O'Brien-Smith 2003", "o brien smith 2003")
	// Pre-processing options that coincide partly, so the id path copies
	// some groups: plural only (L = L+RP), punctuation only, both, neither.
	f.Add("museums of history", "museum of history")
	f.Add("st. louis cardinals", "st louis cardinals")
	f.Add("O'Brien's museums", "obrien museum")
	f.Add("alpha unit 2003", "alpha unit 2004")
	// Counts past int8 (300 copies of "aaa" in one bucket) and past int16
	// (40,000): embeddings kept in wide lanes, on either side of a pair.
	f.Add(strings.Repeat("a", 300), strings.Repeat("a", 299))
	f.Add("aaaa", strings.Repeat("a", 40000))
	f.Add(strings.Repeat("A", 40000), strings.Repeat("ab", 200))
	// Records past 64 distinct 3-grams (or words), so slots 64 apart
	// share a signature bit on either side of a pair.
	f.Add("the quick brown fox jumps over the lazy dog while five boxing wizards jump quickly",
		"the quick brown fox jumped over a lazy dog as five boxing wizards jumped")
	f.Add("a b c d e f g h i j k l m n o p q r s t u v w x y z aa bb cc dd ee ff gg hh ii jj kk ll mm nn oo pp qq rr ss tt uu vv ww xx yy zz aaa bbb ccc ddd eee fff ggg hhh iii jjj kkk lll mmm",
		"mmm lll a zz q")
	f.Fuzz(func(t *testing.T, a, b string) {
		space := ExtendedSpace()
		if len(a) > 64 || len(b) > 64 {
			// The char kernels are quadratic, so a long input, the kind
			// whose embedding can overflow int8 lanes, scores every other
			// function.
			if len(a) > 1<<17 || len(b) > 1<<17 {
				return
			}
			space = slices.DeleteFunc(space, func(f JoinFunction) bool { return f.Dist.Class() == CharBased })
		}
		corpus := NewCorpus(space, []string{a, b})
		profs := corpus.Profiles([]string{a, b}, 1)
		ev := NewEvaluator(space)
		out := make([]float64, len(space))
		ev.Distances(profs[0], profs[1], ev.NewScratch(), out)
		for fi, fn := range space {
			if want := fn.Distance(profs[0], profs[1]); out[fi] != want {
				t.Fatalf("fn %s on (%q, %q): fused %v != single %v",
					fn.Name(), a, b, out[fi], want)
			}
		}

		sc := ev.NewScratch()
		got := make([]float64, len(space))
		var side Side
		// bounded holds RowDistances under a set bound to got, the uncut
		// values of f against row i: with every other function's cut at
		// -Inf and a set function's at its own value, no group of it may
		// skip, first with the run sums cold, then with those its kernel
		// stored.
		cut, cutOut := make([]float64, len(space)), make([]float64, len(space))
		bounded := func(what string, f *Fixed, rows *Rows, i int, sums *SumCache) {
			t.Helper()
			for pass := 0; pass < 2; pass++ {
				for fi, fn := range space {
					if fn.Dist.Class() != SetBased {
						continue
					}
					for k := range cut {
						cut[k] = math.Inf(-1)
					}
					cut[fi] = got[fi]
					ev.RowDistances(f, rows, i, AllGroups, &Cut{D: cut, Sums: sums, Row: i}, sc, cutOut)
					if !sameBits(cutOut[fi], got[fi]) {
						t.Fatalf("fn %s on (%q, %q), %s, pass %d: bounded %v != %v", fn.Name(), a, b, what, pass, cutOut[fi], got[fi])
					}
				}
			}
		}
		same := func(what string, l, r string, lp, rp *Profile) {
			t.Helper()
			side.Release()
			ev.Distances(lp, rp, sc, out)
			for fi, fn := range space {
				if got[fi] != out[fi] {
					t.Fatalf("fn %s on (%q, %q), %s: id path %v != Distances %v", fn.Name(), l, r, what, got[fi], out[fi])
				}
			}
		}

		// The table path: a and b stored as the rows of a Vocab; b queried
		// against row a as is and with a token no row holds, and row a
		// prepared as a ball's center against row b.
		v := NewVocab(space)
		rows := v.NewRows(2)
		appendRecord(v, &rows, a)
		appendRecord(v, &rows, b)
		v.Settle()
		sums := v.NewSumCache()
		sums.Fit(2, 1)
		for _, q := range []string{b, b + " zqxj"} {
			fq := v.PrepareQuery(&side, q, nil, AllGroups)
			ev.RowDistances(&fq, &rows, 0, AllGroups, nil, sc, got)
			bounded("row l, query r", &fq, &rows, 0, sums)
			same("row l, query r", a, q, profs[0], corpus.Profile(q))
		}
		fc := v.PrepareRow(&side, &rows, 0, AllGroups, true)
		ev.RowDistances(&fc, &rows, 1, AllGroups, nil, sc, got)
		bounded("center l, row r", &fc, &rows, 1, sums)
		same("center l, row r", a, b, profs[0], profs[1])

		// The vocabulary grows past those prepares and row a is removed.
		c := b + " qvxk " + a
		appendRecord(v, &rows, c)
		v.Count(&rows, 0, -1)
		v.Settle()
		grown := NewCorpus(space, []string{b, c})
		sums.Fit(3, 2)
		fc = v.PrepareRow(&side, &rows, 2, AllGroups, true)
		ev.RowDistances(&fc, &rows, 1, AllGroups, nil, sc, got)
		bounded("grown: center l, row r", &fc, &rows, 1, sums)
		same("grown: center l, row r", c, b, grown.Profile(c), grown.Profile(b))
		q := a + " zqxj"
		fq := v.PrepareQuery(&side, q, nil, AllGroups)
		ev.RowDistances(&fq, &rows, 2, AllGroups, nil, sc, got)
		bounded("grown: row l, query r", &fq, &rows, 2, sums)
		same("grown: row l, query r", c, q, grown.Profile(c), grown.Profile(q))

		// The learn path: L = {a} and R = {b} stored as rows 0 and 1 under
		// one closed vocabulary, against the profiles of a corpus over the
		// same collections, with either row prepared.
		learned := LearnProfiles(space, 1, []string{a}, []string{b})
		lc := NewCorpus(space, []string{a}, []string{b})
		lsums := learned.v.NewSumCache()
		lsums.Fit(2, 1)
		fl := learned.v.PrepareRow(&side, &learned.rows, 1, AllGroups, false)
		ev.RowDistances(&fl, &learned.rows, 0, AllGroups, nil, sc, got)
		bounded("learn row l, prepared row r", &fl, &learned.rows, 0, lsums)
		same("learn row l, prepared row r", a, b, lc.Profile(a), lc.Profile(b))
		fl = learned.v.PrepareRow(&side, &learned.rows, 0, AllGroups, true)
		ev.RowDistances(&fl, &learned.rows, 1, AllGroups, nil, sc, got)
		bounded("prepared learn row l, row r", &fl, &learned.rows, 1, lsums)
		same("prepared learn row l, row r", a, b, lc.Profile(a), lc.Profile(b))
	})
}

// BenchmarkEvaluator measures the fused per-pair evaluation of the full
// space against the function-major loop it replaces.
func BenchmarkEvaluator(b *testing.B) {
	space := Space()
	recs := make([]string, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range recs {
		recs[i] = fmt.Sprintf("%s %d", randRecord(rng), i%9)
	}
	corpus := NewCorpus(space, recs)
	profs := corpus.Profiles(recs, 0)
	out := make([]float64, len(space))
	b.Run("fused", func(b *testing.B) {
		ev := NewEvaluator(space)
		sc := ev.NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.Distances(profs[i%len(profs)], profs[(i+7)%len(profs)], sc, out)
		}
	})
	b.Run("function-major", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, r := profs[i%len(profs)], profs[(i+7)%len(profs)]
			for fi, f := range space {
				out[fi] = f.Distance(l, r)
			}
		}
	})
}
