package config

import (
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
)

// TestArenaDistancesMatchProfiles: the columnar kernels reproduce
// Evaluator.Distances on pointer profiles exactly (==), for every
// function of the full and extended spaces. The reference side is the
// left table of each of the benchmark's five learn tasks plus edge-case
// records (empty, blank, non-ASCII); the query side is the task's right
// table plus the same edge cases and tokens the arena never interned.
// Each query is scored against a rotating sample of the reference
// records and against every edge-case record.
func TestArenaDistancesMatchProfiles(t *testing.T) {
	edge := []string{
		"", " ", "a", "müller straße", "日本 日本 語", "naïve café, naïve café!",
		"ΩΩ ΩΩ ψ", "qqxj never-seen wwzv", "2008 LSU Tigers Football",
	}
	spaces := map[string][]JoinFunction{"full": Space(), "extended": ExtendedSpace()}
	for _, name := range []string{"full", "extended"} {
		space := spaces[name]
		ev := NewEvaluator(space)
		sc := ev.NewScratch()
		got, want := make([]float64, len(space)), make([]float64, len(space))
		for _, id := range []int{0, 2, 4, 14, 20} {
			task := benchgen.SingleColumnTask(id, benchgen.Options{Seed: 1, Scale: 1})
			refs := append(task.LeftKey(), edge...)
			corpus := NewCorpus(space, refs)
			profs := corpus.Profiles(refs, 1)
			arena := corpus.BuildArena(profs)
			if arena.Len() != len(refs) {
				t.Fatalf("%s task %d: arena holds %d records, want %d", name, id, arena.Len(), len(refs))
			}
			check := func(l int, s string, qa *Fixed, qp *Profile) {
				ev.ArenaDistances(arena, int32(l), qa, sc, got)
				ev.Distances(profs[l], qp, sc, want)
				for fi, f := range space {
					if got[fi] != want[fi] {
						t.Fatalf("%s task %d, %s between reference %q and query %q: arena %v, profiles %v",
							name, id, f.Name(), refs[l], s, got[fi], want[fi])
					}
				}
			}
			firstEdge := len(refs) - len(edge)
			for qi, s := range append(task.RightKey(), edge...) {
				qa, qp := corpus.ArenaQuery(arena, s), corpus.Profile(s)
				for l := qi % 41; l < firstEdge; l += 41 {
					check(l, s, qa, qp)
				}
				for l := firstEdge; l < len(refs); l++ {
					check(l, s, qa, qp)
				}
			}
		}
	}
}
