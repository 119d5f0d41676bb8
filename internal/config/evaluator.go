package config

import (
	"math"
	"slices"

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
//   - every embedding group is a single exact integer dot product over the
//     profiles' precomputed count vectors (see package embed).
//
// For the full 140-function space this turns ~140 kernel invocations per
// candidate pair into at most 16 merges + 4 char-pair DP groups + 4 dot
// products. RowDistances, the id-space entry point that learning and
// serving both score through, scores less still:
//
//   - one side of a run of pairs is prepared once (Side), and each set
//     group is one pass over the other side's stored run;
//
//   - a group whose pre-processing gives both records the same strings as
//     an earlier group's copies that group's kernel result instead of
//     rerunning it (a char group from one computing every member it needs,
//     an embedding group from any embedding group, an equal-weight set
//     group from one of the same tokenization; IDF weights differ per
//     representation, so IDF groups never copy). Pre-processing options
//     often agree — lower-casing and punctuation removal give the same
//     string for most records without punctuation — and the record builds
//     share equal strings, so the check is usually a pointer compare;
//
//   - a GroupMask selects the groups to score, so a caller that needs only
//     some functions (learning's ball pass, core.prepare phase 3, and a
//     table's ball count) runs only their kernels;
//
//   - a per-function cut (Cut) skips a char group whose
//     distance.CharBound (on ED and JW; ME and SW never skip) is past
//     every function's cut, and, for a caller that keeps the stored runs'
//     IDF sums (SumCache), a set group whose distance.SetBound (from the
//     runs' token signatures, the prepared side's signature tables and
//     the runs' Sum and Norm) is past every function's cut. A serving
//     miss's candidate scan and ball counts find most set groups past
//     every cut and learning few, so only serving keeps the sums.
//
// Distances are bit-identical to JoinFunction.Distance — the plans reuse
// the exact arithmetic of the single-function kernels, and a copied
// result is the one the kernel would compute from the same inputs — so
// callers can switch freely between the two (enforced by
// TestEvaluatorMatchesDistance, TestRowDistancesMask and FuzzEvaluator).
//
// An Evaluator is immutable after NewEvaluator and safe for concurrent
// use; the mutable per-worker state lives in EvalScratch (one per
// goroutine, from NewScratch).
type Evaluator struct {
	space []JoinFunction
	char  []charPlan
	set   []setPlan
	emb   []embPlan
	group []GroupMask // by function index: the group that scores it
}

// GroupMask selects evaluation groups of an Evaluator, one bit per group
// (see Evaluator.Group). A space has at most 4 char, 16 set and 4
// embedding groups, so every group has a bit.
type GroupMask uint64

// AllGroups selects every group: RowDistances fills every function's slot.
const AllGroups = ^GroupMask(0)

// slot routes one group member back to its function index in the space.
type slot struct {
	fi   int32
	dist Distance
}

// source is an earlier group of the same kind whose kernel result a group
// may copy when the two pre-processing options give both records the
// same strings.
type source struct {
	gi  int32
	pre textproc.Option
	bit GroupMask
}

// charPlan fuses the character-family functions of one pre-processing
// pipeline.
type charPlan struct {
	pre  textproc.Option
	need distance.CharNeed
	fns  []slot
	bit  GroupMask
	from []source // earlier char groups computing every member need asks for
}

// setPlan fuses the set-family functions of one (pre, tok, weight)
// representation.
type setPlan struct {
	pre  textproc.Option
	tok  tokenize.Option
	wt   weights.Scheme
	need distance.SetNeed // the members fns score, for distance.SetBound
	// By orientation (the prepared side as l), whether some member's
	// bound is 0 when the run's Sum and Norm are not known (MD, and ID
	// with the run as r), so the group cannot be past a cut of 0 or more.
	coldZero [2]bool
	fns      []slot
	bit      GroupMask
	from     []source // earlier equal-weight groups of the same tokenization
}

// embPlan shares the embedding distance of one pre-processing pipeline.
type embPlan struct {
	pre  textproc.Option
	fns  []int32
	bit  GroupMask
	from []source // earlier embedding groups
}

// EvalScratch is the reusable per-worker state of an Evaluator. It is
// not safe for concurrent use; give each worker its own.
type EvalScratch struct {
	char                    distance.CharScratch
	bound                   distance.SetDists // the set bound of the current group
	charScored, charSkipped uint64            // char groups run and skipped (CharWork)
	setScored, setSkipped   uint64            // set groups run and skipped (SetWork)
	// The kernel results of the current RowDistances call, by group, for
	// later groups to copy.
	cd [numPre]distance.CharDists
	sd [numPre * numTok * numWt]distance.SetDists
	ed [numPre]float64
}

// NewEvaluator compiles the space into representation-keyed evaluation
// plans. Group order follows first appearance in the space, so plan
// iteration (and therefore scratch reuse) is deterministic.
func NewEvaluator(space []JoinFunction) *Evaluator {
	e := &Evaluator{space: space, group: groupBits(space)}
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
				e.char = append(e.char, charPlan{pre: f.Pre, bit: e.group[fi]})
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
				e.emb = append(e.emb, embPlan{pre: f.Pre, bit: e.group[fi]})
			}
			e.emb[gi].fns = append(e.emb[gi].fns, int32(fi))
		default:
			key := [3]uint8{uint8(f.Pre), uint8(f.Tok), uint8(f.Weight)}
			gi, ok := setIdx[key]
			if !ok {
				gi = len(e.set)
				setIdx[key] = gi
				e.set = append(e.set, setPlan{pre: f.Pre, tok: f.Tok, wt: f.Weight, bit: e.group[fi]})
			}
			g := &e.set[gi]
			switch f.Dist {
			case JD:
				g.need.JD = true
			case CD:
				g.need.CD = true
			case DD:
				g.need.DD = true
			case MD:
				g.need.MD = true
				g.coldZero = [2]bool{true, true}
			case ID:
				g.need.ID = true
				g.coldZero[1] = true
			case CJD:
				g.need.CJD = true
			case CCD:
				g.need.CCD = true
			case CDD:
				g.need.CDD = true
			}
			g.fns = append(g.fns, slot{fi: int32(fi), dist: f.Dist})
		}
	}

	// The earlier groups each group may copy from.
	for gi := range e.char {
		g := &e.char[gi]
		for si, s := range e.char[:gi] {
			if covers(s.need, g.need) {
				g.from = append(g.from, source{gi: int32(si), pre: s.pre, bit: s.bit})
			}
		}
	}
	for gi := range e.set {
		g := &e.set[gi]
		for si, s := range e.set[:gi] {
			if g.wt == weights.Equal && s.wt == weights.Equal && s.tok == g.tok {
				g.from = append(g.from, source{gi: int32(si), pre: s.pre, bit: s.bit})
			}
		}
	}
	for gi := range e.emb {
		for si, s := range e.emb[:gi] {
			e.emb[gi].from = append(e.emb[gi].from, source{gi: int32(si), pre: s.pre, bit: s.bit})
		}
	}
	return e
}

// groupBits returns the bit of the evaluation group of every function of
// space: one group per char pre-processing, per set (pre, tok, weight)
// representation and per embedding pre-processing, taking bits in order
// of first appearance.
func groupBits(space []JoinFunction) []GroupMask {
	bits := make([]GroupMask, len(space))
	seen := map[[4]uint8]GroupMask{}
	for fi, f := range space {
		key := [4]uint8{uint8(f.Dist.Class()), uint8(f.Pre)}
		if f.Dist.Class() == SetBased {
			key[2], key[3] = uint8(f.Tok), uint8(f.Weight)
		}
		bit, ok := seen[key]
		if !ok {
			bit = 1 << len(seen)
			seen[key] = bit
		}
		bits[fi] = bit
	}
	return bits
}

// covers reports whether a char kernel run for need a computes every
// member need b asks for.
func covers(a, b distance.CharNeed) bool {
	return (a.ED || !b.ED) && (a.JW || !b.JW) && (a.ME || !b.ME) && (a.SW || !b.SW)
}

// Group returns the bit of the group that scores function fi: the mask
// under which RowDistances fills out[fi].
func (e *Evaluator) Group(fi int) GroupMask { return e.group[fi] }

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
		sd := distance.SetFamily(l.vecs[g.pre][g.tok][g.wt], r.vecs[g.pre][g.tok][g.wt])
		scatterSet(g, &sd, out)
	}
	for gi := range e.emb {
		g := &e.emb[gi]
		d := embed.CosineDistance(l.emb[g.pre], r.emb[g.pre])
		for _, fi := range g.fns {
			out[fi] = d
		}
	}
}

// RowDistances is Distances between the prepared record f and row i of
// s, rows of f's vocabulary, oriented as f was prepared, and bit-identical
// to Distances on the equivalent Profiles. Only the groups in mask, which
// f must be prepared for, are scored: out[fi] is filled for every function
// whose Group is in mask, and every other slot is left as it was. A group
// copies the result of an earlier group scored in the same call whose
// processed strings coincide with its own on both records. Row i's strings
// and embeddings are read only where a scored group needs them.
//
// A group whose bound exceeds cut.D[fi] for every function fi of it runs
// no kernel (see Cut): its functions get +Inf, past the cut as their
// values are, and no later group copies it. A nil cut scores every group.
//
//autofj:hotpath
func (e *Evaluator) RowDistances(f *Fixed, s *Rows, i int, mask GroupMask, cut *Cut, sc *EvalScratch, out []float64) {
	scored := mask // the groups this call ran or copied, for later copies
	for gi := range e.char {
		g := &e.char[gi]
		if mask&g.bit == 0 {
			continue
		}
		if src := copySource(g.from, scored, g.pre, &f.rec, s, i); src >= 0 {
			sc.cd[gi] = sc.cd[src]
		} else if cut != nil && beyond(g, distance.CharBound(f.shape[g.pre], s.shapes[i*s.lay.nproc+int(s.lay.proc[g.pre])]), cut.D) {
			sc.cd[gi] = distance.CharDists{ED: math.Inf(1), JW: math.Inf(1), ME: math.Inf(1), SW: math.Inf(1)}
			scored &^= g.bit
			sc.charSkipped++
		} else {
			l, r := f.rec.proc[g.pre], s.procAt(i, g.pre)
			if !f.l {
				l, r = r, l
			}
			sc.cd[gi] = sc.char.Distances(l, r, g.need)
			sc.charScored++
		}
		scatterChar(g, sc.cd[gi], out)
	}
	for gi := range e.set {
		g := &e.set[gi]
		if mask&g.bit == 0 {
			continue
		}
		if src := copySource(g.from, scored, g.pre, &f.rec, s, i); src >= 0 {
			sc.sd[gi] = sc.sd[src]
		} else if !scoreSet(g, f, s, i, cut, sc, &sc.sd[gi]) {
			scored &^= g.bit
		}
		scatterSet(g, &sc.sd[gi], out)
	}
	for gi := range e.emb {
		g := &e.emb[gi]
		if mask&g.bit == 0 {
			continue
		}
		if src := copySource(g.from, mask, g.pre, &f.rec, s, i); src >= 0 {
			sc.ed[gi] = sc.ed[src]
		} else {
			// Cosine is symmetric, so the orientation does not matter.
			sc.ed[gi] = embed.CosineDistanceLanes(f.rec.emb[g.pre], s.lanes(i, int(s.lay.emb[g.pre])))
		}
		for _, fi := range g.fns {
			out[fi] = sc.ed[gi]
		}
	}
}

// scoreSet fills d with set group g's distances between f and row i of
// s, and reports whether its kernel ran: with cut.Sums set, a group whose
// distance.SetBound is past every function's cut runs none and gets +Inf.
//
//autofj:hotpath
func scoreSet(g *setPlan, f *Fixed, s *Rows, i int, cut *Cut, sc *EvalScratch, d *distance.SetDists) bool {
	p := &f.side.set[g.pre][g.tok][g.wt]
	ri := s.lay.rep[g.pre][g.tok]
	at := i*len(s.lay.reps) + int(ri)
	lo, hi := s.off[at], s.off[at+1]
	counts := s.runCounts(at)
	k := -1 // the run's IDF position in cut.Sums, while its values are cold
	if cut != nil && cut.Sums != nil {
		var past bool
		if past, k = setPast(g, p, f.l, s, at, counts, cut, sc); past {
			inf := math.Inf(1)
			d.JD, d.CD, d.DD, d.MD, d.ID, d.CJD, d.CCD, d.CDD = inf, inf, inf, inf, inf, inf, inf, inf
			sc.setSkipped++
			return false
		}
	}
	sc.setScored++
	// The kernels take each slot width and each run kind (nil counts: all
	// ones) through one generic loop apiece.
	var sum, norm float64
	switch {
	case s.wide && g.wt == weights.IDF:
		*d, sum, norm = distance.SetFamilyIDF(p, s.slots32[lo:hi], counts, f.v.reps[ri].sw, f.l)
	case s.wide:
		*d = distance.SetFamilyRun(p, s.slots32[lo:hi], counts, f.l)
	case g.wt == weights.IDF:
		*d, sum, norm = distance.SetFamilyIDF(p, s.slots16[lo:hi], counts, f.v.reps[ri].sw, f.l)
	default:
		*d = distance.SetFamilyRun(p, s.slots16[lo:hi], counts, f.l)
	}
	if k >= 0 && p.N > 0 {
		cut.Sums.store(cut.Row, k, sum, norm)
	}
	return true
}

// setPast reports whether set group g's distance.SetBound between p
// (the pair's l when pL) and run at of s, whose counts are counts, is past
// every function's cut.D, and returns the run's IDF position in cut.Sums
// when its Sum and Norm are cold there, else -1.
//
//autofj:hotpath
func setPast(g *setPlan, p *distance.Prepared, pL bool, s *Rows, at int, counts []uint32, cut *Cut, sc *EvalScratch) (past bool, cold int) {
	r := distance.Run{Sig: s.sigs[at], N: int(s.off[at+1] - s.off[at]), CMax: 1}
	switch {
	case g.wt == weights.IDF:
		k := int(cut.Sums.idf[g.pre][g.tok])
		if r.Sum, r.Norm, r.Known = cut.Sums.load(cut.Row, k); !r.Known {
			if pL && g.coldZero[1] || !pL && g.coldZero[0] {
				// A member bounded by 0 is within every cut a caller
				// passes, all being 0 or more.
				return false, k
			}
			cold = k
		} else {
			cold = -1
		}
	case counts == nil:
		// n ones sum, and square-sum, to n exactly, as the kernel finds.
		r.Sum = float64(r.N)
		r.Norm, r.Known, cold = math.Sqrt(r.Sum), true, -1
	default:
		r.Sum, r.Norm = RunSums(counts)
		r.Known, cold = true, -1
	}
	if counts != nil && (g.need.CD || g.need.CCD) {
		r.CMax = slices.Max(counts)
	}
	distance.SetBound(p, &r, pL, g.need, &sc.bound)
	return beyondSet(g, &sc.bound, cut.D), cold
}

// copySource returns the first group of from that mask scores and whose
// processed strings equal those under pre on both the fixed record and
// row i of s, or -1. Its kernel result is then the one pre's group would
// compute.
//
//autofj:hotpath
func copySource(from []source, mask GroupMask, pre textproc.Option, fixed *Record, s *Rows, i int) int {
	for _, src := range from {
		if mask&src.bit != 0 && fixed.proc[src.pre] == fixed.proc[pre] && s.procAt(i, src.pre) == s.procAt(i, pre) {
			return int(src.gi)
		}
	}
	return -1
}

// CharWork returns how many char groups RowDistances ran a kernel for
// and how many it skipped by the bound, over the scratch's life.
func (sc *EvalScratch) CharWork() (scored, skipped uint64) { return sc.charScored, sc.charSkipped }

// SetWork returns how many set groups RowDistances ran a kernel for and
// how many it skipped by the bound, over the scratch's life.
func (sc *EvalScratch) SetWork() (scored, skipped uint64) { return sc.setScored, sc.setSkipped }

// beyond reports whether bound exceeds the cut of every function of g.
//
//autofj:hotpath
func beyond(g *charPlan, bound distance.CharDists, cut []float64) bool {
	for _, s := range g.fns {
		if member(&bound, s.dist) <= cut[s.fi] {
			return false
		}
	}
	return true
}

// member returns the member of cd that scores distance d. Unknown
// char-based distances score 1, matching the JoinFunction.Distance
// fallback.
//
//autofj:hotpath
func member(cd *distance.CharDists, d Distance) float64 {
	switch d {
	case ED:
		return cd.ED
	case JW:
		return cd.JW
	case ME:
		return cd.ME
	case SW:
		return cd.SW
	}
	return 1
}

// beyondSet reports whether bound exceeds the cut of every function of g.
//
//autofj:hotpath
func beyondSet(g *setPlan, bound *distance.SetDists, cut []float64) bool {
	for _, s := range g.fns {
		if setMember(bound, s.dist) <= cut[s.fi] {
			return false
		}
	}
	return true
}

// scatterChar fans one fused char-kernel result out to the plan's
// function slots (shared by the Distances entry points).
//
//autofj:hotpath
func scatterChar(g *charPlan, cd distance.CharDists, out []float64) {
	for _, s := range g.fns {
		out[s.fi] = member(&cd, s.dist)
	}
}

// scatterSet fans one fused set-kernel result out to the plan's function
// slots (shared by the Distances entry points).
//
//autofj:hotpath
func scatterSet(g *setPlan, sd *distance.SetDists, out []float64) {
	for _, s := range g.fns {
		out[s.fi] = setMember(sd, s.dist)
	}
}

// setMember returns the member of sd that scores distance d. Unknown
// set-based distances score 1, matching the JoinFunction.Distance
// fallback.
//
//autofj:hotpath
func setMember(sd *distance.SetDists, d Distance) float64 {
	switch d {
	case JD:
		return sd.JD
	case CD:
		return sd.CD
	case DD:
		return sd.DD
	case MD:
		return sd.MD
	case ID:
		return sd.ID
	case CJD:
		return sd.CJD
	case CCD:
		return sd.CCD
	case CDD:
		return sd.CDD
	}
	return 1
}
