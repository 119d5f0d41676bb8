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

// TestProfilesMatchMapOracle: NewCorpusProfiles, Profile and CountProfile
// reproduce the map-based construction (NewCorpus + Scheme.Vector +
// NewSparse) to the bit — every slot, Sum and Norm — on the five learn
// tasks of the benchmark and on edge-case strings, under the full,
// reduced, extended and an IDF-only space, at parallelism 1 and 3. Slots
// the space does not use stay empty and stored slices have no spare
// capacity, so a stored profile is no larger than the map-built one.
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
	for _, name := range []string{"full", "reduced", "extended", "idf-only"} {
		space := spaces[name]
		for ti, task := range tasks {
			oracle := NewCorpus(space, task[0], task[1])
			var want [2][]*Profile
			for k, coll := range task {
				for _, s := range coll {
					want[k] = append(want[k], mapOracleProfile(oracle, s))
				}
			}
			for _, par := range []int{1, 3} {
				c, profs := NewCorpusProfiles(space, par, task[0], task[1])
				for _, rep := range oracle.IDFReps() {
					got, want := c.stats[rep.Pre][rep.Tok], oracle.stats[rep.Pre][rep.Tok]
					if got.Docs() != want.Docs() {
						t.Fatalf("%s task %d par %d: statistics of %v count %d documents, want %d",
							name, ti, par, rep, got.Docs(), want.Docs())
					}
					for _, ps := range profs {
						for _, p := range ps {
							for _, tok := range p.vecs[rep.Pre][rep.Tok][weights.IDF].Tokens {
								if !sameBits(got.IDF(tok), want.IDF(tok)) {
									t.Fatalf("%s task %d par %d: IDF(%q) of %v differs", name, ti, par, tok, rep)
								}
							}
						}
					}
				}
				for k, coll := range task {
					for i, s := range coll {
						where := fmt.Sprintf("%s task %d par %d NewCorpusProfiles[%d][%d] %q", name, ti, par, k, i, s)
						checkProfile(t, where, profs[k][i], want[k][i], &c.needVec)
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
