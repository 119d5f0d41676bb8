package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	autofj "github.com/chu-data-lab/autofuzzyjoin-go"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/distance"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/embed"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/serve"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// sink keeps results alive so that no replayed call is optimised away.
var sink int

// Sizes of the layer replay.
const (
	replayQueries = 128 // distinct queries replayed through every layer
	replayDelta   = 96  // rows held in the delta for the *_delta and table_topk numbers
	replayRemoves = 32
	// The full 140-function kernels are replayed on the first fullQueries
	// queries against their first fullCands candidates.
	fullQueries = 32
	fullCands   = 8
)

// replayInput is what the layers are replayed on: the workload's own
// reference table, training task and queries.
type replayInput struct {
	left           []string
	trainL, trainR []string
	queries        []op // distinct opQuery ops
	dir            string
	daemonBin      string
}

// replayInputOf picks the replay's inputs from a workload: the serving
// workloads replay their first distinct timed queries against the reference
// table; learn replays the right records of its first seeded task against
// that task's left table.
func replayInputOf(w *workload) replayInput {
	var in replayInput
	if w.ref != nil {
		in.left, in.trainL, in.trainR = w.ref.left, w.ref.trainL, w.ref.trainR
		seen := map[string]bool{}
		for _, o := range w.timed {
			if o.kind == opQuery && !seen[o.text] && len(in.queries) < replayQueries {
				seen[o.text] = true
				in.queries = append(in.queries, o)
			}
		}
		return in
	}
	t := w.tasks[len(learnTaskIDs)]
	in.left, in.trainL, in.trainR = t.left, t.left, t.right
	for j, r := range t.right {
		if len(in.queries) == replayQueries {
			break
		}
		truth, ok := t.truth[j]
		if !ok {
			truth = -1
		}
		in.queries = append(in.queries, op{kind: opQuery, text: r, truth: truth})
	}
	return in
}

// replayLayers calls each layer's public functions on the replay input,
// one span per call, and returns the per-layer metrics computed from the
// spans' self times and counts.
func replayLayers(in replayInput, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	nq := len(in.queries)
	if nq == 0 || len(in.left) <= replayDelta+replayRemoves {
		return nil, fmt.Errorf("replay needs queries and more than %d rows", replayDelta+replayRemoves)
	}

	// --- core: learn ---
	id := rec.begin("core.learn", -1, -1)
	res, err := autofj.Join(in.trainL, in.trainR, autofj.Options{})
	rec.end(id, 1)
	if err != nil {
		return nil, err
	}
	m["core.learn_blocking_ms"] = ms(res.Timing.Blocking)
	m["core.learn_precompute_ms"] = ms(res.Timing.Precompute)
	m["core.learn_greedy_ms"] = ms(res.Timing.Greedy)
	m["core.program_configs"] = float64(len(res.Program))
	prog := res.ToProgram()

	space := make([]config.JoinFunction, len(res.Program))
	type preTok struct {
		pre textproc.Option
		tok tokenize.Option
	}
	var pres []textproc.Option
	var preToks []preTok
	seenPre, seenPT := map[textproc.Option]bool{}, map[preTok]bool{}
	for i, c := range res.Program {
		f := c.Function
		space[i] = f
		if !seenPre[f.Pre] {
			seenPre[f.Pre] = true
			pres = append(pres, f.Pre)
		}
		if pt := (preTok{f.Pre, f.Tok}); f.Dist.Class() == config.SetBased && !seenPT[pt] {
			seenPT[pt] = true
			preToks = append(preToks, pt)
		}
	}
	if len(preToks) == 0 { // a program without set-based functions still gets a tokenizer number
		preToks = append(preToks, preTok{textproc.Options()[0], tokenize.Options()[0]})
	}

	// --- build-side layers, each one span under "build" ---
	build := rec.begin("build", -1, -1)
	n := len(in.left)

	id = rec.begin("blocking.index_build", build, -1)
	ix := blocking.NewIndexParallel(in.left, 0)
	rec.end(id, n)

	// The table index the mutable path queries: a compiled segment plus a
	// live delta of replayDelta rows.
	id = rec.begin("blocking.table_build", build, -1)
	seg := blocking.BuildSegment(in.left[:n-replayDelta], 0)
	alive := make([]bool, n-replayDelta)
	for i := range alive {
		alive[i] = true
	}
	tix := blocking.NewTableIndex()
	tix.AttachSegment(seg, alive, true)
	for _, s := range in.left[n-replayDelta:] {
		tix.AddDelta(s)
	}
	rec.end(id, n)

	docs := make([][]string, n)
	for i, s := range in.left {
		docs[i] = preToks[0].tok.Tokens(preToks[0].pre.Apply(s))
	}
	id = rec.begin("weights.stats_build", build, -1)
	stats := weights.NewStats(docs)
	rec.end(id, stats.Docs())

	id = rec.begin("config.corpus", build, -1)
	corpus := config.NewCorpus(space, in.left)
	rec.end(id, n)
	id = rec.begin("config.profile", build, -1)
	profs := corpus.Profiles(in.left, 0)
	rec.end(id, n)
	id = rec.begin("config.arena_build", build, -1)
	arena := corpus.BuildArena(profs)
	rec.end(id, arena.Len())

	id = rec.begin("negrule.freeze", build, -1)
	rules := negrule.NewSet()
	for _, pair := range prog.NegativeRules {
		rules.Add(pair[0], pair[1])
	}
	frozen := rules.Freeze(in.left, 0)
	rec.end(id, frozen.Len())

	id = rec.begin("core.compile", build, -1)
	tab, err := prog.NewTable(1, singleCellRows(in.left), core.Options{})
	rec.end(id, n)
	if err != nil {
		return nil, err
	}
	rec.end(build, 1)

	// --- query-side layers: each query walks the pipeline once ---
	k := blocking.K(n, prog.BlockingBeta)
	sc, tsc := ix.NewScratch(), blocking.NewTableScratch()
	ev := config.NewEvaluator(space)
	esc := ev.NewScratch()
	dists := make([]float64, ev.NumFunctions())
	processed := make(map[textproc.Option]string, len(pres))
	var cands, tcands []blocking.Candidate
	var qwords []string
	truthSeen, truthFound, vetoes := 0, 0, 0
	firstCands := make([][]int32, 0, fullQueries)
	for qi, q := range in.queries {
		root := rec.begin("query", -1, qi)

		id = rec.begin("textproc.apply", root, qi)
		for _, pre := range pres {
			processed[pre] = pre.Apply(q.text)
		}
		rec.end(id, len(pres))

		id = rec.begin("tokenize.tokens", root, qi)
		for _, pt := range preToks {
			sink += len(pt.tok.Tokens(processed[pt.pre]))
		}
		rec.end(id, len(preToks))

		id = rec.begin("embed.embed", root, qi)
		for _, pre := range pres {
			v := embed.Embed(processed[pre])
			sink += int(v[0])
		}
		rec.end(id, len(pres))

		id = rec.begin("blocking.topk", root, qi)
		cands = ix.AppendTopK(cands[:0], sc, q.text, k, -1)
		rec.end(id, len(cands))
		if q.truth >= 0 {
			truthSeen++
			for _, c := range cands {
				if int(c.ID) == q.truth {
					truthFound++
					break
				}
			}
		}
		if qi < fullQueries {
			ids := make([]int32, 0, fullCands)
			for _, c := range cands[:min(fullCands, len(cands))] {
				ids = append(ids, c.ID)
			}
			firstCands = append(firstCands, ids)
		}

		id = rec.begin("blocking.table_topk", root, qi)
		tcands = tix.AppendTopK(tcands[:0], tsc, q.text, k)
		rec.end(id, len(tcands))

		id = rec.begin("negrule.blocks", root, qi)
		qwords = negrule.AppendWordSet(qwords[:0], q.text)
		kept := cands[:0]
		for _, c := range cands {
			if frozen.Blocks(int(c.ID), qwords) {
				vetoes++
			} else {
				kept = append(kept, c)
			}
		}
		rec.end(id, len(cands))

		id = rec.begin("config.arena_query", root, qi)
		qp := corpus.ArenaQuery(arena, q.text)
		rec.end(id, 1)
		id = rec.begin("config.arena_eval", root, qi)
		for _, c := range kept {
			ev.ArenaDistances(arena, c.ID, qp, esc, dists)
			sink += int(dists[0])
		}
		rec.end(id, len(kept))

		rec.end(root, 1)
	}

	// --- the learner's kernels under the full 140-function space ---
	full := rec.begin("full_space", -1, -1)
	fullSpace := config.Space()
	var sample []string
	for qi, ids := range firstCands {
		sample = append(sample, in.queries[qi].text)
		for _, l := range ids {
			sample = append(sample, in.left[l])
		}
	}
	fcorpus := config.NewCorpus(fullSpace, sample)
	fev := config.NewEvaluator(fullSpace)
	fsc := fev.NewScratch()
	fdists := make([]float64, fev.NumFunctions())
	var cs distance.CharScratch
	pre0, tok0 := textproc.Options()[0], tokenize.Options()[0]
	for qi, ids := range firstCands {
		pr := fcorpus.Profile(in.queries[qi].text)
		for _, l := range ids {
			pl := fcorpus.Profile(in.left[l])
			id = rec.begin("config.eval", full, qi)
			fev.Distances(pl, pr, fsc, fdists)
			rec.end(id, 1)
			id = rec.begin("distance.setfamily", full, qi)
			sd := distance.SetFamily(pl.CountVec(pre0, tok0), pr.CountVec(pre0, tok0))
			rec.end(id, 1)
			id = rec.begin("distance.char", full, qi)
			cd := cs.Distances(pl.Processed(pre0), pr.Processed(pre0), distance.CharNeed{ED: true, JW: true, ME: true, SW: true})
			rec.end(id, 1)
			sink += int(fdists[0] + sd.JD + cd.ED)
		}
	}
	rec.end(full, 1)

	// --- core: the compiled table, cold, warm, with a delta, mutated ---
	matchPass := func(name string) error {
		for qi, q := range in.queries {
			id := rec.begin(name, -1, qi)
			_, _, err := tab.Match(ctx, q.text)
			rec.end(id, 1)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := matchPass("core.match_cold"); err != nil {
		return nil, err
	}
	if err := matchPass("core.match_warm"); err != nil {
		return nil, err
	}
	// Allocations are counted over a third pass without spans, so that the
	// recorder's own slice growth is not charged to the table.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range in.queries {
		if _, _, err := tab.Match(ctx, q.text); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	m["core.match_warm_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(nq)

	g := newQueryGen(&refData{left: in.left, heldOut: in.left}, dataSeed)
	for i := 0; i < replayDelta; i++ {
		row := g.fresh(in.left[g.rng.Intn(n)])
		id = rec.begin("core.add", -1, -1)
		_, err := tab.Add([][]string{{row}})
		rec.end(id, 1)
		if err != nil {
			return nil, err
		}
	}
	if err := matchPass("core.match_refill"); err != nil { // the mutation emptied the cache
		return nil, err
	}
	if err := matchPass("core.match_delta"); err != nil {
		return nil, err
	}
	for i := 0; i < replayRemoves; i++ {
		id = rec.begin("core.remove", -1, -1)
		_, err := tab.Remove([]int{g.rng.Intn(n - replayRemoves)})
		rec.end(id, 1)
		if err != nil {
			return nil, err
		}
	}
	id = rec.begin("core.compact", -1, -1)
	_, err = tab.Compact(ctx)
	rec.end(id, 1)
	if err != nil {
		return nil, err
	}

	snap := filepath.Join(in.dir, "table.afjs")
	id = rec.begin("core.snapshot_save", -1, -1)
	err = tab.SaveFile(snap)
	rec.end(id, 1)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(snap)
	if err != nil {
		return nil, err
	}
	m["core.snapshot_bytes_per_row"] = float64(st.Size()) / float64(tab.Len())
	id = rec.begin("core.snapshot_load", -1, -1)
	_, err = core.LoadTableFile(snap, core.Options{})
	rec.end(id, 1)
	if err != nil {
		return nil, err
	}

	// --- serve in process: Registry.Query, miss then hit ---
	progJSON, err := prog.Encode()
	if err != nil {
		return nil, err
	}
	var csv strings.Builder
	leftTab := dataset.SingleColumn("name", in.left)
	if err := leftTab.WriteCSV(&csv); err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(serve.Config{}, serve.NewMetrics(time.Now()))
	id = rec.begin("serve.register", -1, -1)
	err = reg.Register(serve.ProgramSpec{Name: "t", Program: progJSON, LeftCSV: csv.String()})
	rec.end(id, n)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"serve.query_miss", "serve.query_hit"} {
		for qi, q := range in.queries {
			id := rec.begin(name, -1, qi)
			_, err := reg.Query(ctx, "t", []string{q.text})
			rec.end(id, 1)
			if err != nil {
				reg.Close(ctx)
				return nil, err
			}
		}
	}
	if err := reg.Close(ctx); err != nil {
		return nil, err
	}

	// --- autofjd: the real binary, boot, miss pass, hit pass ---
	progPath, leftPath, err := daemonFiles(in.dir, prog, in.left)
	if err != nil {
		return nil, err
	}
	id = rec.begin("autofjd.boot", -1, -1)
	d, err := startDaemon(in.daemonBin, progPath, leftPath, 1)
	rec.end(id, 1)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	for _, name := range []string{"autofjd.http_miss", "autofjd.http_hit"} {
		for qi := 0; qi < nq && err == nil; qi++ {
			id := rec.begin(name, -1, qi)
			_, err = d.do(&in.queries[qi])
			rec.end(id, 1)
		}
	}
	var cpu1 float64
	if err == nil {
		cpu1, err = d.cpuSeconds()
	}
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m["autofjd.cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(2*nq)

	// --- metrics from the spans ---
	t := rec.selfTimes()
	per := func(name string, unit time.Duration) float64 { // self time per span
		return float64(t[name].self) / float64(unit) / float64(t[name].spans)
	}
	perCount := func(name string, unit time.Duration) float64 { // self time per unit of work
		return float64(t[name].self) / float64(unit) / float64(max(t[name].count, 1))
	}
	m["textproc.apply_us_per_query"] = per("textproc.apply", time.Microsecond)
	m["tokenize.tokens_us_per_query"] = per("tokenize.tokens", time.Microsecond)
	m["embed.embed_us_per_query"] = per("embed.embed", time.Microsecond)
	m["blocking.index_build_ms"] = per("blocking.index_build", time.Millisecond)
	m["blocking.topk_us_per_query"] = per("blocking.topk", time.Microsecond)
	m["blocking.table_topk_us_per_query"] = per("blocking.table_topk", time.Microsecond)
	m["blocking.candidates_per_query"] = float64(t["blocking.topk"].count) / float64(nq)
	m["blocking.truth_in_topk_ratio"] = float64(truthFound) / float64(max(truthSeen, 1))
	m["negrule.blocks_ns_per_pair"] = perCount("negrule.blocks", time.Nanosecond)
	m["negrule.veto_ratio"] = float64(vetoes) / float64(max(t["negrule.blocks"].count, 1))
	m["weights.stats_build_ms"] = per("weights.stats_build", time.Millisecond)
	m["config.profile_us_per_record"] = perCount("config.profile", time.Microsecond)
	m["config.arena_build_ms"] = per("config.arena_build", time.Millisecond)
	m["config.eval_ns_per_pair"] = per("config.eval", time.Nanosecond)
	m["distance.setfamily_ns_per_pair"] = per("distance.setfamily", time.Nanosecond)
	m["distance.char_ns_per_pair"] = per("distance.char", time.Nanosecond)
	m["config.arena_eval_ns_per_pair"] = perCount("config.arena_eval", time.Nanosecond)
	m["core.compile_ms"] = per("core.compile", time.Millisecond)
	m["core.match_cold_us"] = per("core.match_cold", time.Microsecond)
	m["core.match_warm_us"] = per("core.match_warm", time.Microsecond)
	m["core.match_delta_us"] = per("core.match_delta", time.Microsecond)
	m["core.add_us"] = per("core.add", time.Microsecond)
	m["core.remove_us"] = per("core.remove", time.Microsecond)
	m["core.compact_ms"] = per("core.compact", time.Millisecond)
	m["core.snapshot_save_ms"] = per("core.snapshot_save", time.Millisecond)
	m["core.snapshot_load_ms"] = per("core.snapshot_load", time.Millisecond)
	m["serve.query_hit_us"] = per("serve.query_hit", time.Microsecond)
	m["serve.query_miss_us"] = per("serve.query_miss", time.Microsecond)
	m["autofjd.boot_s"] = per("autofjd.boot", time.Second)
	m["autofjd.http_self_us"] = per("autofjd.http_hit", time.Microsecond) - m["serve.query_hit_us"]
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
