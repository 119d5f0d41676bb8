package config

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// Evaluator is the pair-major, fused-kernel view of a configuration
// space: where JoinFunction.Distance scores one function at a time —
// re-merging the same sparse vectors and re-scanning the same processed
// strings for every function that shares a representation — an Evaluator
// groups the space into representation-keyed evaluation plans and fills
// a dense per-pair distance vector in one pass:
//
//   - every set-based group (pre-processing, tokenization, weighting)
//     does ONE sorted-merge per pair (distance.SetFamily) from which all
//     eight set distances are derived closed-form;
//   - every character-based group (pre-processing) converts the two
//     processed strings to runes once and runs the ED/JW/ME/SW dynamic
//     programs on reusable per-worker buffers (distance.CharScratch);
//   - every embedding group is a single dot product over the profiles'
//     precomputed embeddings.
//
// For the full 140-function space this turns ~140 kernel invocations per
// candidate pair into 16 merges + 4 char-pair DP groups + 4 dot
// products. Distances are bit-identical to JoinFunction.Distance — the
// plans reuse the exact arithmetic of the single-function kernels — so
// callers can switch freely between the two (enforced by
// TestEvaluatorMatchesDistance and FuzzEvaluator).
//
// An Evaluator is immutable after NewEvaluator and safe for concurrent
// use; the mutable per-worker state lives in EvalScratch (one per
// goroutine, from NewScratch).
type Evaluator struct {
	space []JoinFunction
	char  []charPlan
	set   []setPlan
	emb   []embPlan
}

// slot routes one group member back to its function index in the space.
type slot struct {
	fi   int32
	dist Distance
}

// charPlan fuses the character-family functions of one pre-processing
// pipeline.
type charPlan struct {
	pre  textproc.Option
	need distance.CharNeed
	fns  []slot
}

// setPlan fuses the set-family functions of one (pre, tok, weight)
// representation.
type setPlan struct {
	pre textproc.Option
	tok tokenize.Option
	wt  weights.Scheme
	fns []slot
}

// embPlan shares the embedding distance of one pre-processing pipeline.
type embPlan struct {
	pre textproc.Option
	fns []int32
}

// EvalScratch is the reusable per-worker state of an Evaluator. It is
// not safe for concurrent use; give each worker its own.
type EvalScratch struct {
	char   distance.CharScratch
	derive DeriveBuf // ArenaDistances' reference-row buffers
}

// NewEvaluator compiles the space into representation-keyed evaluation
// plans. Group order follows first appearance in the space, so plan
// iteration (and therefore scratch reuse) is deterministic.
func NewEvaluator(space []JoinFunction) *Evaluator {
	e := &Evaluator{space: space}
	charIdx := map[textproc.Option]int{}
	setIdx := map[[3]uint8]int{}
	embIdx := map[textproc.Option]int{}
	for fi, f := range space {
		switch f.Dist.Class() {
		case CharBased:
			gi, ok := charIdx[f.Pre]
			if !ok {
				gi = len(e.char)
				charIdx[f.Pre] = gi
				e.char = append(e.char, charPlan{pre: f.Pre})
			}
			g := &e.char[gi]
			switch f.Dist {
			case ED:
				g.need.ED = true
			case JW:
				g.need.JW = true
			case ME:
				g.need.ME = true
			case SW:
				g.need.SW = true
			}
			g.fns = append(g.fns, slot{fi: int32(fi), dist: f.Dist})
		case EmbeddingBased:
			gi, ok := embIdx[f.Pre]
			if !ok {
				gi = len(e.emb)
				embIdx[f.Pre] = gi
				e.emb = append(e.emb, embPlan{pre: f.Pre})
			}
			e.emb[gi].fns = append(e.emb[gi].fns, int32(fi))
		default:
			key := [3]uint8{uint8(f.Pre), uint8(f.Tok), uint8(f.Weight)}
			gi, ok := setIdx[key]
			if !ok {
				gi = len(e.set)
				setIdx[key] = gi
				e.set = append(e.set, setPlan{pre: f.Pre, tok: f.Tok, wt: f.Weight})
			}
			e.set[gi].fns = append(e.set[gi].fns, slot{fi: int32(fi), dist: f.Dist})
		}
	}
	return e
}

// NumFunctions returns the size of the dense distance vector Distances
// fills — the length of the compiled space.
func (e *Evaluator) NumFunctions() int { return len(e.space) }

// NewScratch returns fresh per-worker scratch for Distances.
func (e *Evaluator) NewScratch() *EvalScratch { return &EvalScratch{} }

// Distances fills out[fi] with the distance of every join function of
// the compiled space between the reference-side profile l and the
// query-side profile r. out must have NumFunctions() entries. The values
// are bit-identical to calling space[fi].Distance(l, r) per function.
//
//autofj:hotpath
func (e *Evaluator) Distances(l, r *Profile, sc *EvalScratch, out []float64) {
	for gi := range e.char {
		g := &e.char[gi]
		scatterChar(g, sc.char.Distances(l.proc[g.pre], r.proc[g.pre], g.need), out)
	}
	for gi := range e.set {
		g := &e.set[gi]
		scatterSet(g, distance.SetFamily(l.vecs[g.pre][g.tok][g.wt], r.vecs[g.pre][g.tok][g.wt]), out)
	}
	for gi := range e.emb {
		g := &e.emb[gi]
		d := embed.CosineDistance(l.emb[g.pre], r.emb[g.pre])
		for _, fi := range g.fns {
			out[fi] = d
		}
	}
}

// IDDistances is Distances over id-space profiles (see Vocab): the set
// kernels merge lexically ranked token ids with distance.SetFamilyIDs and
// the embedding dot product runs over flat slices, so the values are
// bit-identical to Distances on the equivalent Profiles. l is the
// reference-side row, r the query side (or a second reference row).
//
//autofj:hotpath
func (e *Evaluator) IDDistances(l, r *IDProfile, sc *EvalScratch, out []float64) {
	for gi := range e.char {
		g := &e.char[gi]
		scatterChar(g, sc.char.Distances(l.proc[g.pre], r.proc[g.pre], g.need), out)
	}
	for gi := range e.set {
		g := &e.set[gi]
		scatterSet(g, distance.SetFamilyIDs(l.vec[g.pre][g.tok][g.wt], r.vec[g.pre][g.tok][g.wt]), out)
	}
	for gi := range e.emb {
		g := &e.emb[gi]
		d := embed.CosineDistanceFlat(l.emb[g.pre], r.emb[g.pre])
		for _, fi := range g.fns {
			out[fi] = d
		}
	}
}

// scatterChar fans one fused char-kernel result out to the plan's
// function slots (shared by the Distances entry points).
//
//autofj:hotpath
func scatterChar(g *charPlan, cd distance.CharDists, out []float64) {
	for _, s := range g.fns {
		switch s.dist {
		case ED:
			out[s.fi] = cd.ED
		case JW:
			out[s.fi] = cd.JW
		case ME:
			out[s.fi] = cd.ME
		case SW:
			out[s.fi] = cd.SW
		default:
			// Unknown char-based distances score 1, matching the
			// JoinFunction.Distance fallback; never leave the reused
			// output buffer holding the previous pair's value.
			out[s.fi] = 1
		}
	}
}

// scatterSet fans one fused set-kernel result out to the plan's function
// slots (shared by the Distances entry points).
//
//autofj:hotpath
func scatterSet(g *setPlan, sd distance.SetDists, out []float64) {
	for _, s := range g.fns {
		switch s.dist {
		case JD:
			out[s.fi] = sd.JD
		case CD:
			out[s.fi] = sd.CD
		case DD:
			out[s.fi] = sd.DD
		case MD:
			out[s.fi] = sd.MD
		case ID:
			out[s.fi] = sd.ID
		case CJD:
			out[s.fi] = sd.CJD
		case CCD:
			out[s.fi] = sd.CCD
		case CDD:
			out[s.fi] = sd.CDD
		default:
			// Unknown set-based distances score 1, matching the
			// JoinFunction.Distance fallback.
			out[s.fi] = 1
		}
	}
}
