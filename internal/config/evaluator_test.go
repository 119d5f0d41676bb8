package config

import (
	"fmt"
	"math"
	"math/rand"
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

// TestIDDistancesMask: IDDistances under a group mask fills exactly the
// functions whose group the mask selects, with the values of an unmasked
// call, and leaves every other slot untouched — over the learn views and
// over table rows against queries, the latter with out-of-vocabulary
// tokens so masked copying crosses the Extra path, and with the row
// derived under the same mask.
func TestIDDistancesMask(t *testing.T) {
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
			// check scores (l, r) under random masks, each time right after
			// scoring the decoy pair (dl, dr) on the same scratch, so a group
			// that copied a result its mask did not score would read the
			// decoy's.
			check := func(what string, l, r, dl, dr *IDProfile) {
				t.Helper()
				ev.IDDistances(l, r, AllGroups, sc, want)
				for trial := 0; trial < 8; trial++ {
					mask := randMask()
					ev.IDDistances(dl, dr, AllGroups, sc, got)
					for fi := range got {
						got[fi] = untouched
					}
					ev.IDDistances(l, r, mask, sc, got)
					for fi, fn := range space {
						exp := untouched
						if ev.Group(fi)&mask != 0 {
							exp = want[fi]
						}
						if math.Float64bits(got[fi]) != math.Float64bits(exp) {
							t.Fatalf("%s, mask %#x, fn %s: got %v, want %v", what, mask, fn.Name(), got[fi], exp)
						}
					}
				}
			}

			views := LearnProfiles(space, 1, recs)[0]
			for i := range views {
				j, k := rng.Intn(len(views)), rng.Intn(len(views))
				check(fmt.Sprintf("learn views %q, %q", recs[i], recs[j]), &views[i], &views[j], &views[k], &views[i])
			}

			v := NewVocab(space)
			rows := v.NewRows(len(recs), 0)
			for _, rec := range recs {
				v.AppendRecord(&rows, rec)
			}
			v.Settle()
			var buf DeriveBuf
			var ref IDProfile
			for i, rec := range recs {
				v.Derive(&rows, i, AllGroups, &buf, &ref)
				q := recs[rng.Intn(len(recs))] + " zqxj"
				qp := v.Query(q)
				decoy := v.Query(recs[rng.Intn(len(recs))])
				check(fmt.Sprintf("row %q, query %q", rec, q), &ref, qp, &ref, decoy)

				// Row i derived under the mask over another row's view: the
				// set vectors a masked Derive leaves stale are ones the
				// mask's groups never read.
				ev.IDDistances(&ref, qp, AllGroups, sc, want)
				for trial := 0; trial < 8; trial++ {
					mask := randMask()
					v.Derive(&rows, rng.Intn(len(recs)), AllGroups, &buf, &ref)
					v.Derive(&rows, i, mask, &buf, &ref)
					for fi := range got {
						got[fi] = untouched
					}
					ev.IDDistances(&ref, qp, mask, sc, got)
					for fi, fn := range space {
						exp := untouched
						if ev.Group(fi)&mask != 0 {
							exp = want[fi]
						}
						if math.Float64bits(got[fi]) != math.Float64bits(exp) {
							t.Fatalf("row %q derived under mask %#x, query %q, fn %s: got %v, want %v",
								rec, mask, q, fn.Name(), got[fi], exp)
						}
					}
				}
			}
		})
	}
}

// FuzzEvaluator cross-checks fused vs single-function scoring on
// arbitrary string pairs under the extended space (every kernel family).
func FuzzEvaluator(f *testing.F) {
	f.Add("north museum of history", "nothern museum of history")
	f.Add("", "x")
	f.Add("O'Brien-Smith 2003", "o brien smith 2003")
	// Pre-processing options that coincide partly, so IDDistances copies
	// some groups: plural only (L = L+RP), punctuation only, both, neither.
	f.Add("museums of history", "museum of history")
	f.Add("st. louis cardinals", "st louis cardinals")
	f.Add("O'Brien's museums", "obrien museum")
	f.Add("alpha unit 2003", "alpha unit 2004")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 64 || len(b) > 64 {
			return // quadratic kernels; keep the fuzz corpus fast
		}
		space := ExtendedSpace()
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

		// The id path: a and b stored as the rows of a Vocab, row 0
		// derived, and b queried as is and with a token no row holds.
		v := NewVocab(space)
		rows := v.NewRows(2, 0)
		v.AppendRecord(&rows, a)
		v.AppendRecord(&rows, b)
		v.Settle()
		var buf DeriveBuf
		var ref IDProfile
		v.Derive(&rows, 0, AllGroups, &buf, &ref)
		sc := ev.NewScratch()
		got := make([]float64, len(space))
		for _, q := range []string{b, b + " zqxj"} {
			ev.IDDistances(&ref, v.Query(q), AllGroups, sc, got)
			ev.Distances(profs[0], corpus.Profile(q), sc, out)
			for fi, fn := range space {
				if got[fi] != out[fi] {
					t.Fatalf("fn %s on (%q, %q): IDDistances %v != Distances %v",
						fn.Name(), a, q, got[fi], out[fi])
				}
			}
		}

		// The learn path: L = {a} and R = {b} derived under one closed
		// vocabulary, against the profiles of a corpus over the same
		// collections.
		views := LearnProfiles(space, 1, []string{a}, []string{b})
		lc := NewCorpus(space, []string{a}, []string{b})
		ev.IDDistances(&views[0][0], &views[1][0], AllGroups, sc, got)
		ev.Distances(lc.Profile(a), lc.Profile(b), sc, out)
		for fi, fn := range space {
			if got[fi] != out[fi] {
				t.Fatalf("fn %s on (%q, %q): learn IDDistances %v != Distances %v",
					fn.Name(), a, b, got[fi], out[fi])
			}
		}
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
