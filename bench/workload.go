package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// Sizes of the benchmark. They are constants, not flags: a number is only
// comparable with another produced under the same sizes.
const (
	// dataSeed generates everything that is the system's state rather than
	// its input: the reference table, the task the serving program is
	// learned from, and the evaluation set quality is scored on. Keeping it
	// apart from --seed makes precision, recall and precision_gap exact and
	// the same under every seed, so their 1 % bounds mean something; --seed
	// generates every input whose latency is measured.
	dataSeed = 1
	// refTask at refScale is the reference table (|L| about 6.3 k rows);
	// the same task at scale 1 is what the serving program is learned from.
	refTask  = 0
	refScale = 10

	evalQueries   = 200 // evaluation set, sent as warm-up inside set-up
	heldOutShare  = 0.1 // share of queries whose entity is not in the table
	novelTimedOps = 350

	churnHotSet     = 16
	churnTimedOps   = 1280
	churnMutateEach = 128  // every 128th op is a one-row mutation
	churnCompactAt  = 1024 // every 1024th op is a Compact instead

	daemonHotSet   = 128
	daemonTimedOps = 2000
	daemonHotShare = 0.8

	zipfS = 1.1

	// The hit share of table_churn and daemon_mixed must stay in this range,
	// so that p50 stays a hit and p95 a miss.
	hitShareLo, hitShareHi = 0.75, 0.92

	learnRounds = 3 // timed passes over the five seeded tasks
)

// learnTaskIDs are the five tasks of the learn workload: sports, default,
// typo, typo and roman perturbation profiles. Five, not six, so the median
// op sits inside one task's samples instead of on the boundary of two.
var learnTaskIDs = []int{0, 2, 4, 14, 20}

type opKind uint8

const (
	opQuery opKind = iota
	opAdd
	opRemove
	opCompact
	opLearn
)

// op is one operation of a workload's sequence.
type op struct {
	kind opKind
	// text is the query string (opQuery) or the row to add (opAdd).
	text string
	// truth is the reference row an opQuery should find, -1 when its
	// entity is not in the table.
	truth int
	// index is the dense row to remove (opRemove) or the task to learn
	// (opLearn, into workload.tasks).
	index int
}

// learnTask is one (L, R, truth) instance of the learn workload.
type learnTask struct {
	left, right []string
	truth       metrics.Truth
}

// refData is the state the three serving workloads share.
type refData struct {
	left []string
	// heldOut are right records of the reference task whose entity is not
	// in left: queries made from them have no true match.
	heldOut        []string
	trainL, trainR []string
}

// workload is a fully generated run: every op of every phase is decided
// here, from the seed, before anything is timed.
type workload struct {
	name    string
	clients int
	// tailPct is the percentile reported as op_tail_us: the highest one
	// the pooled sample of a run supports.
	tailPct float64
	// warm is sent inside set-up; quality is scored on warm[:nEval], which
	// never depends on the seed.
	warm  []op
	nEval int
	timed []op
	// hitChecked says the workload is about a cache: the share of its timed
	// lookups answered from it must stay within [hitShareLo, hitShareHi].
	hitChecked bool

	ref   *refData    // serving workloads
	tasks []learnTask // learn
}

var workloadWhy = map[string]string{
	"learn":        "the paper's own operation: core prepare/greedy, config.Evaluator over 140 functions and the distance kernels do the work, serve does none",
	"query_novel":  "every query is a never-seen string, so each pays textproc, tokenize, blocking, scoring and first-touch ball counts; caches do nothing",
	"table_churn":  "a hot set read beside Add/Remove/Compact: the query cache is filled and invalidated while it is read, and the delta path is live",
	"daemon_mixed": "the real autofjd over HTTP, 80% hot and 20% never-seen from 2 clients: serve's LRU, batcher and net/http do the work on most ops",
}

// workloadNames is the order workloads are listed and run in.
var workloadNames = []string{"learn", "query_novel", "table_churn", "daemon_mixed"}

func loadRefData() *refData {
	ref := benchgen.SingleColumnTask(refTask, benchgen.Options{Seed: dataSeed, Scale: refScale})
	train := benchgen.SingleColumnTask(refTask, benchgen.Options{Seed: dataSeed, Scale: 1})
	d := &refData{left: ref.LeftKey(), trainL: train.LeftKey(), trainR: train.RightKey()}
	for j, r := range ref.RightKey() {
		if _, ok := ref.Truth[j]; !ok {
			d.heldOut = append(d.heldOut, r)
		}
	}
	return d
}

func loadLearnTask(id int, seed int64) learnTask {
	t := benchgen.SingleColumnTask(id, benchgen.Options{Seed: seed, Scale: 1})
	return learnTask{left: t.LeftKey(), right: t.RightKey(), truth: t.Truth}
}

// queryGen makes never-seen queries: no string it returns equals a
// reference row or anything it returned before.
type queryGen struct {
	rng  *rand.Rand
	ref  *refData
	prof benchgen.Profile
	seen map[string]bool
}

func newQueryGen(ref *refData, seed int64) *queryGen {
	g := &queryGen{
		rng:  rand.New(rand.NewSource(seed)),
		ref:  ref,
		prof: benchgen.DefaultProfile(),
		seen: make(map[string]bool, len(ref.left)),
	}
	for _, s := range ref.left {
		g.seen[s] = true
	}
	return g
}

// fresh perturbs base until the result is new.
func (g *queryGen) fresh(base string) string {
	for {
		if q := g.prof.Apply(g.rng, base); q != "" && !g.seen[q] {
			g.seen[q] = true
			return q
		}
	}
}

// novel returns one query: a perturbed reference row with that row as
// truth, or (heldOutShare of the time) a perturbed held-out record with no
// truth.
func (g *queryGen) novel() op {
	if g.rng.Float64() < heldOutShare {
		return op{kind: opQuery, text: g.fresh(g.ref.heldOut[g.rng.Intn(len(g.ref.heldOut))]), truth: -1}
	}
	li := g.rng.Intn(len(g.ref.left))
	return op{kind: opQuery, text: g.fresh(g.ref.left[li]), truth: li}
}

func (g *queryGen) novels(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.novel()
	}
	return out
}

// fixedQueries returns the evaluation set followed by the hot queries that
// make up a workload's hot set. They come from dataSeed alone — which queries
// are popular is the system's state, not the seed's choice: with a hot set
// of 16 drawn from the seed, the p95 of table_churn (the miss after an
// invalidation) moved by a third between seeds with nothing but the sixteen
// strings to blame. All of them are marked seen in g, so that no seeded
// query repeats one.
func fixedQueries(ref *refData, g *queryGen, hot int) []op {
	fixed := newQueryGen(ref, dataSeed).novels(evalQueries + hot)
	for _, o := range fixed {
		g.seen[o.text] = true
	}
	return fixed
}

// buildWorkload generates the named workload from the seed. The same
// (name, seed) always yields the same ops; see sequenceHash.
func buildWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, clients: 1, tailPct: 95}
	if name == "learn" {
		// 45 pooled samples in a run of three epochs: p90 sits in the middle
		// of the slowest task's nine samples.
		w.tailPct = 90
		for _, id := range learnTaskIDs {
			w.tasks = append(w.tasks, loadLearnTask(id, dataSeed))
		}
		for _, id := range learnTaskIDs {
			w.tasks = append(w.tasks, loadLearnTask(id, seed))
		}
		n := len(learnTaskIDs)
		for i := 0; i < 2*n; i++ { // the fixed tasks (scored), then the seeded ones (warm-up)
			w.warm = append(w.warm, op{kind: opLearn, index: i})
		}
		w.nEval = n
		for r := 0; r < learnRounds; r++ {
			for i := n; i < 2*n; i++ {
				w.timed = append(w.timed, op{kind: opLearn, index: i})
			}
		}
		return w, nil
	}

	w.ref = loadRefData()
	g := newQueryGen(w.ref, seed)
	hotSize := map[string]int{"table_churn": churnHotSet, "daemon_mixed": daemonHotSet}[name]
	w.warm = fixedQueries(w.ref, g, hotSize) // the evaluation set, then one pass over the hot set
	w.nEval = evalQueries
	hot := w.warm[evalQueries:]
	switch name {
	case "query_novel":
		w.timed = g.novels(novelTimedOps)
	case "table_churn":
		zipf := rand.NewZipf(g.rng, zipfS, 1, churnHotSet-1)
		rows := len(w.ref.left)
		mutations := 0
		for i := 1; i <= churnTimedOps; i++ {
			switch {
			case i%churnCompactAt == 0:
				w.timed = append(w.timed, op{kind: opCompact})
			case i%churnMutateEach == 0:
				if mutations%4 == 3 {
					w.timed = append(w.timed, op{kind: opRemove, index: g.rng.Intn(rows)})
					rows--
				} else {
					w.timed = append(w.timed, op{kind: opAdd, text: g.fresh(w.ref.left[g.rng.Intn(len(w.ref.left))])})
					rows++
				}
				mutations++
			default:
				w.timed = append(w.timed, hot[zipf.Uint64()])
			}
		}
		w.hitChecked = true
	case "daemon_mixed":
		w.clients = 2
		zipf := rand.NewZipf(g.rng, zipfS, 1, daemonHotSet-1)
		for i := 0; i < daemonTimedOps; i++ {
			if g.rng.Float64() < daemonHotShare {
				w.timed = append(w.timed, hot[zipf.Uint64()])
			} else {
				w.timed = append(w.timed, g.novel())
			}
		}
		w.hitChecked = true
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// sequenceHash identifies the generated inputs: every op of both phases
// and, for learn, every record of every task.
func (w *workload) sequenceHash() string {
	h := sha256.New()
	for _, phase := range [][]op{w.warm, w.timed} {
		fmt.Fprintf(h, "phase %d\n", len(phase))
		for _, o := range phase {
			fmt.Fprintf(h, "%d %q %d %d\n", o.kind, o.text, o.truth, o.index)
		}
	}
	for _, t := range w.tasks {
		fmt.Fprintf(h, "task %q %q\n", t.left, t.right)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
