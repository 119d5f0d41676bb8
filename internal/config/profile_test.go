package config

import (
	"fmt"
	"math"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// mapOracleProfile is the map-based profile construction the one-pass
// builder replaced, kept as the test oracle: every weighting scheme
// tokenizes the record, builds a token->weight map with Scheme.Vector and
// sorts it into a Sparse with NewSparse.
func mapOracleProfile(c *Corpus, s string) *Profile {
	p := &Profile{Raw: s}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		p.proc[pi] = textproc.Option(pi).Apply(s)
		if c.needEmb[pi] {
			p.ensureEmb()[pi] = embed.Embed(p.proc[pi])
		}
		for ti := 0; ti < numTok; ti++ {
			for wi := 0; wi < numWt; wi++ {
				if !c.needVec[pi][ti][wi] {
					continue
				}
				toks := tokenize.Option(ti).Tokens(p.proc[pi])
				p.ensureVec(pi, ti)[wi] = distance.NewSparse(weights.Scheme(wi).Vector(toks, c.stats[pi][ti]))
			}
		}
	}
	return p
}

// mapOracleCountProfile is the map-based construction of a count profile.
func mapOracleCountProfile(c *Corpus, s string) *Profile {
	p := &Profile{Raw: s}
	for pi := 0; pi < numPre; pi++ {
		if !c.needProc[pi] {
			continue
		}
		p.proc[pi] = textproc.Option(pi).Apply(s)
		if c.needEmb[pi] {
			p.ensureEmb()[pi] = embed.Embed(p.proc[pi])
		}
		for ti := 0; ti < numTok; ti++ {
			if c.NeedCounts(textproc.Option(pi), tokenize.Option(ti)) {
				toks := tokenize.Option(ti).Tokens(p.proc[pi])
				p.ensureVec(pi, ti)[weights.Equal] = distance.NewSparse(weights.Equal.Vector(toks, nil))
			}
		}
	}
	return p
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSparse compares one stored vector slot with the oracle's to the
// bit and checks that it is stored in exact-sized slices.
func checkSparse(t *testing.T, where string, got, want distance.Sparse) {
	t.Helper()
	if len(got.Tokens) != len(want.Tokens) || len(got.W) != len(want.W) ||
		!sameBits(got.Sum, want.Sum) || !sameBits(got.Norm, want.Norm) {
		t.Fatalf("%s: got %d tokens sum %v norm %v, want %d tokens sum %v norm %v",
			where, len(got.Tokens), got.Sum, got.Norm, len(want.Tokens), want.Sum, want.Norm)
	}
	for i := range want.Tokens {
		if got.Tokens[i] != want.Tokens[i] || !sameBits(got.W[i], want.W[i]) {
			t.Fatalf("%s: token %d is (%q, %v), want (%q, %v)",
				where, i, got.Tokens[i], got.W[i], want.Tokens[i], want.W[i])
		}
	}
	if cap(got.Tokens) != len(got.Tokens) || cap(got.W) != len(got.W) {
		t.Fatalf("%s: stored with spare capacity (tokens %d/%d, weights %d/%d)",
			where, len(got.Tokens), cap(got.Tokens), len(got.W), cap(got.W))
	}
}

// checkProfile compares every slot of a built profile with the oracle's.
// used[pi][ti][wi] says which slots the profile must hold; every other
// slot must be empty.
func checkProfile(t *testing.T, where string, got, want *Profile, used *[numPre][numTok][numWt]bool) {
	t.Helper()
	if got.Raw != want.Raw || got.proc != want.proc {
		t.Fatalf("%s: processed strings %q, want %q", where, got.proc, want.proc)
	}
	if (got.emb == nil) != (want.emb == nil) || (got.emb != nil && *got.emb != *want.emb) {
		t.Fatalf("%s: embeddings differ", where)
	}
	for pi := 0; pi < numPre; pi++ {
		for ti := 0; ti < numTok; ti++ {
			gb, wb := got.vecs[pi][ti], want.vecs[pi][ti]
			if (gb == nil) != (wb == nil) {
				t.Fatalf("%s: vector block (%d,%d) present=%v, want %v", where, pi, ti, gb != nil, wb != nil)
			}
			if gb == nil {
				continue
			}
			for wi := 0; wi < numWt; wi++ {
				slot := fmt.Sprintf("%s (%s,%s,%s)", where, textproc.Option(pi), tokenize.Option(ti), weights.Scheme(wi))
				if !used[pi][ti][wi] {
					if s := gb[wi]; s.Tokens != nil || s.W != nil || s.Sum != 0 || s.Norm != 0 {
						t.Fatalf("%s: slot the space does not use holds %d tokens", slot, len(s.Tokens))
					}
					continue
				}
				checkSparse(t, slot, gb[wi], wb[wi])
			}
		}
	}
}

// countSlots marks the Equal slot of every representation pair whose
// counts the corpus keeps — the slots of a count profile.
func countSlots(c *Corpus) *[numPre][numTok][numWt]bool {
	var used [numPre][numTok][numWt]bool
	for pi := 0; pi < numPre; pi++ {
		for ti := 0; ti < numTok; ti++ {
			used[pi][ti][weights.Equal] = c.NeedCounts(textproc.Option(pi), tokenize.Option(ti))
		}
	}
	return &used
}

// checkRow compares learn row i of a with the record's map-oracle count
// profile: the same processed strings and embeddings, and for every
// representation the space counts the oracle's tokens ascending (read
// through the vocabulary), counts, Sum and Norm to the bit.
// slotOf[r] collects the slot of every token seen so far in
// representation r, so that one slot names one token across all rows.
func checkRow(t *testing.T, where string, a *ProfileArena, i int, want *Profile, c *Corpus, slotOf []map[string]int32) {
	t.Helper()
	var row Row
	a.rows.Get(i, &row)
	if row.Proc != want.proc {
		t.Fatalf("%s: processed strings %q, want %q", where, row.Proc, want.proc)
	}
	for pi := 0; pi < numPre; pi++ {
		if present := row.Emb[pi].Narrow != nil || row.Emb[pi].Wide != nil; present != c.needEmb[pi] {
			t.Fatalf("%s: embedding %d present=%v, want %v", where, pi, present, c.needEmb[pi])
		}
		if c.needEmb[pi] && (widen(row.Emb[pi]) != want.emb[pi] || row.Emb[pi].Norm != want.emb[pi].Norm()) {
			t.Fatalf("%s: embedding %d differs", where, pi)
		}
		for ti := 0; ti < numTok; ti++ {
			pre, tok := textproc.Option(pi), tokenize.Option(ti)
			if got, want := a.v.NeedCounts(pre, tok), c.NeedCounts(pre, tok); got != want {
				t.Fatalf("%s: (%s,%s) counted=%v, want %v", where, pre, tok, got, want)
			}
		}
	}
	for r, rep := range a.v.lay.reps {
		slot := fmt.Sprintf("%s (%s,%s)", where, rep.Pre, rep.Tok)
		slots, counts := row.Slots[rep.Pre][rep.Tok], row.Counts[rep.Pre][rep.Tok]
		if len(counts) == 0 { // a run of ones, which Get hands over with no counts
			counts = make([]uint32, len(slots))
			for k := range counts {
				counts[k] = 1
			}
		}
		w := want.vecs[rep.Pre][rep.Tok][weights.Equal]
		sum, norm := RunSums(counts)
		if len(slots) != len(w.Tokens) || len(counts) != len(w.W) || !sameBits(sum, w.Sum) || !sameBits(norm, w.Norm) {
			t.Fatalf("%s: got %d slots sum %v norm %v, want %d tokens sum %v norm %v",
				slot, len(slots), sum, norm, len(w.Tokens), w.Sum, w.Norm)
		}
		toks := a.v.reps[r].toks
		for k, sl := range slots {
			if sl < 0 || int(sl) >= len(toks) || toks[sl] != w.Tokens[k] {
				t.Fatalf("%s: token %d is slot %d, want %q", slot, k, sl, w.Tokens[k])
			}
			if prev, ok := slotOf[r][w.Tokens[k]]; ok && prev != sl {
				t.Fatalf("%s: token %q is slot %d and slot %d", slot, w.Tokens[k], prev, sl)
			}
			slotOf[r][w.Tokens[k]] = sl
			if !sameBits(float64(counts[k]), w.W[k]) {
				t.Fatalf("%s: token %q counts %d, want %v", slot, w.Tokens[k], counts[k], w.W[k])
			}
		}
	}
}

// TestProfilesMatchMapOracle: the learn builder (LearnProfiles) scores
// exactly like the map-based construction (NewCorpus + Scheme.Vector +
// NewSparse), on the five learn tasks of the benchmark with edge-case
// strings appended to R, under the full, reduced, extended and an
// IDF-only space, at parallelism 0 (GOMAXPROCS), 1 and 3:
//   - every record's row, L's then R's, holds its oracle count profile to
//     the bit (checkRow), and one slot names one token across rows;
//   - RowDistances equals Distances on the oracle profiles, bit for bit,
//     for every pair of a sample of the records — the first 30 of L and R
//     and the edge cases — in both orders, with either row prepared, as l
//     or as r.
//
// Profile and CountProfile of single records, including records whose
// tokens the corpus has never seen, reproduce the oracle too.
func TestProfilesMatchMapOracle(t *testing.T) {
	var idfOnly []JoinFunction
	for _, f := range Space() {
		if f.Dist.Class() == SetBased && f.Weight == weights.IDF && f.Dist != CD {
			idfOnly = append(idfOnly, f)
		}
	}
	spaces := map[string][]JoinFunction{
		"full": Space(), "reduced": ReducedSpace(), "extended": ExtendedSpace(), "idf-only": idfOnly,
	}
	edge := []string{
		"", " ", "   \t\n ", "a", "a a a a a b a a", "the the the the",
		"ab ab ab ab ab ab ab ab ab ab ab ab", "aaaaaaaaaaaaaaaaaaaa",
		"müller straße", "日本 日本 語", "naïve café, naïve café!", "Tab\tseparated\tWORDS",
		"2008 LSU Tigers Football", "x", "unseen-token zzqq",
	}
	var tasks [][2][]string
	for _, id := range []int{0, 2, 4, 14, 20} {
		task := benchgen.SingleColumnTask(id, benchgen.Options{Seed: 1, Scale: 1})
		tasks = append(tasks, [2][]string{task.LeftKey(), append(task.RightKey(), edge...)})
	}
	const sampleSide = 30
	for _, name := range []string{"full", "reduced", "extended", "idf-only"} {
		space := spaces[name]
		ev := NewEvaluator(space)
		sc := ev.NewScratch()
		got, want := make([]float64, len(space)), make([]float64, len(space))
		for ti, task := range tasks {
			oracle := NewCorpus(space, task[0], task[1])
			var oprofs, ocounts [2][]*Profile
			for k, coll := range task {
				for _, s := range coll {
					oprofs[k] = append(oprofs[k], mapOracleProfile(oracle, s))
					ocounts[k] = append(ocounts[k], mapOracleCountProfile(oracle, s))
				}
			}
			var sample [][2]int // (collection, record)
			for i := 0; i < sampleSide; i++ {
				sample = append(sample, [2]int{0, i}, [2]int{1, i})
			}
			for i := len(task[1]) - len(edge); i < len(task[1]); i++ {
				sample = append(sample, [2]int{1, i})
			}
			for _, par := range []int{0, 1, 3} {
				a := LearnProfiles(space, par, task[0], task[1])
				if a.Len() != len(task[0])+len(task[1]) {
					t.Fatalf("%s task %d par %d: %d rows, want %d", name, ti, par, a.Len(), len(task[0])+len(task[1]))
				}
				slotOf := make([]map[string]int32, len(a.v.reps))
				for r := range slotOf {
					slotOf[r] = map[string]int32{}
				}
				for k, coll := range task {
					for i, s := range coll {
						where := fmt.Sprintf("%s task %d par %d collection %d record %d %q", name, ti, par, k, i, s)
						checkRow(t, where, a, k*len(task[0])+i, ocounts[k][i], oracle, slotOf)
					}
				}
				var side Side
				for _, x := range sample {
					for _, y := range sample {
						ev.Distances(oprofs[x[0]][x[1]], oprofs[y[0]][y[1]], sc, want)
						rl, rr := x[0]*len(task[0])+x[1], y[0]*len(task[0])+y[1]
						for _, lFixed := range []bool{true, false} {
							fixed, other := rl, rr
							if !lFixed {
								fixed, other = rr, rl
							}
							f := a.v.PrepareRow(&side, &a.rows, fixed, AllGroups, lFixed)
							ev.RowDistances(&f, &a.rows, other, AllGroups, nil, sc, got)
							side.Release()
							for fi, fn := range space {
								if !sameBits(got[fi], want[fi]) {
									t.Fatalf("%s task %d par %d, %s between %q and %q (l prepared: %v): RowDistances %v, Distances %v",
										name, ti, par, fn.Name(), task[x[0]][x[1]], task[y[0]][y[1]], lFixed, got[fi], want[fi])
								}
							}
						}
					}
				}
			}
			// Single-record builders, including records whose tokens the
			// corpus has never seen.
			single := append([]string{"qqxj never-seen wwzv", "ΩΩ ΩΩ ψ"}, edge...)
			for _, s := range append(single, task[0][:20]...) {
				checkProfile(t, fmt.Sprintf("%s task %d Profile(%q)", name, ti, s),
					oracle.Profile(s), mapOracleProfile(oracle, s), &oracle.needVec)
				checkProfile(t, fmt.Sprintf("%s task %d CountProfile(%q)", name, ti, s),
					oracle.CountProfile(s), mapOracleCountProfile(oracle, s), countSlots(oracle))
			}
		}
	}
}

// widen returns the count vector stored lanes hold.
func widen(l embed.Lanes) embed.Vector {
	var v embed.Vector
	for d := range v {
		if l.Narrow != nil {
			v[d] = int32(l.Narrow[d])
		} else {
			v[d] = l.Wide[d]
		}
	}
	return v
}
