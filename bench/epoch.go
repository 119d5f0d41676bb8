package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// opTimeout is the latency above which an op counts as failed.
const opTimeout = 2 * time.Second

// epochOut is what one epoch measured.
type epochOut struct {
	setupS float64 // build + warm-up, until the first timed op can be sent
	timedS float64 // wall time of the timed phase
	// latUS[i] is the latency of timed op i in microseconds.
	latUS []float64
	// answers holds the canonical answer of every warm op, then of every
	// timed op; errored[i] is set where the op returned an error.
	answers []string
	errored []bool
	qual    quality  // tally over warm[:nEval]
	counts  counters // difference over the timed phase
	rssMB   float64
}

// drive sends ops[i] for every i from clients closed loops: a client sends
// its next op only when the previous one completed. lat may be nil.
func drive(sys system, ops []op, clients int, rec *recorder, lat []float64, answers []answer, errs []error) {
	one := func(i int) {
		id := rec.begin("op", -1, i)
		t0 := time.Now()
		answers[i], errs[i] = sys.do(&ops[i])
		d := time.Since(t0)
		rec.end(id, 1)
		if lat != nil {
			lat[i] = float64(d.Nanoseconds()) / 1e3
		}
	}
	if clients <= 1 {
		for i := range ops {
			one(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic here would skip main's deferred clean-up.
			defer func() {
				if r := recover(); r != nil {
					cleanupAll()
					panic(r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
}

// runEpoch builds the system from scratch, warms it (both inside setupS),
// then drives the timed ops. rec, when not nil, gets one span per timed op.
func runEpoch(w *workload, build func() (system, error), rec *recorder) (*epochOut, error) {
	nw, nt := len(w.warm), len(w.timed)
	out := &epochOut{
		latUS:   make([]float64, nt),
		answers: make([]string, nw+nt),
		errored: make([]bool, nw+nt),
	}
	answers := make([]answer, nw+nt)
	errs := make([]error, nw+nt)

	// Each phase starts from a collected heap, so that the previous epoch's
	// table is not swept on this one's clock.
	runtime.GC()
	t0 := time.Now()
	sys, err := build()
	if err != nil {
		return nil, fmt.Errorf("building the system: %w", err)
	}
	drive(sys, w.warm, w.clients, nil, nil, answers[:nw], errs[:nw])
	out.setupS = time.Since(t0).Seconds()

	runtime.GC()
	before, err := sys.counters()
	if err != nil {
		sys.close()
		return nil, err
	}
	t1 := time.Now()
	drive(sys, w.timed, w.clients, rec, out.latUS, answers[nw:], errs[nw:])
	out.timedS = time.Since(t1).Seconds()

	after, err := sys.counters()
	if err == nil {
		out.counts = after.sub(before)
		out.rssMB, err = sys.peakRSSMB()
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for i := range answers {
		out.answers[i] = answers[i].text
		if errs[i] != nil {
			out.errored[i] = true
			fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", i, errs[i])
		}
	}
	for i := 0; i < w.nEval; i++ {
		out.qual.add(answers[i].q)
	}
	return out, nil
}

// failedOps counts the ops of an epoch that errored, took longer than
// opTimeout, or answered differently from the oracle.
func failedOps(w *workload, e *epochOut, oracle []string) int {
	failed := 0
	nw := len(w.warm)
	for i := range e.answers {
		slow := i >= nw && e.latUS[i-nw] > float64(opTimeout.Microseconds())
		if e.errored[i] || slow || e.answers[i] != oracle[i] {
			failed++
		}
	}
	return failed
}

// hitShare is the share of timed lookups answered by the cache the
// workload is about: serve's LRU behind the daemon, core's query cache in
// process.
func hitShare(w *workload, c counters) float64 {
	if w.name == "daemon_mixed" {
		return ratio(c.serveHits, c.serveMisses)
	}
	return ratio(c.coreHits, c.coreMisses)
}

// bench is one prepared run: the generated workload, how to build its
// system, and the answers every epoch must reproduce.
type bench struct {
	w     *workload
	build func() (system, error)
	// oracle, when set before the first epoch, is the in-process answer to
	// every op; otherwise epoch 0's answers become the oracle.
	oracle []string
	// dir and daemonBin exist when the run needs the daemon: this run's temp
	// directory and the autofjd binary built from the tree.
	dir, daemonBin string
}

// prepare generates the workload and everything that is the benchmark's own
// work rather than the system's: the daemon binary and its input files, and
// for daemon_mixed the in-process oracle. None of it is timed.
func prepare(name string, seed int64, trace bool) (*bench, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w}
	if name == "daemon_mixed" || trace {
		if b.daemonBin, err = buildDaemon(); err != nil {
			return nil, err
		}
		if b.dir, err = runDir(); err != nil {
			return nil, err
		}
	}
	switch name {
	case "learn":
		b.build = func() (system, error) { return learnSystem{tasks: w.tasks}, nil }
	case "daemon_mixed":
		prog, err := learnServingProgram(w.ref)
		if err != nil {
			return nil, err
		}
		progPath, leftPath, err := daemonFiles(b.dir, prog, w.ref.left)
		if err != nil {
			return nil, err
		}
		if b.oracle, err = inProcessAnswers(prog, w); err != nil {
			return nil, err
		}
		b.build = func() (system, error) { return startDaemon(b.daemonBin, progPath, leftPath, w.clients) }
	default:
		b.build = func() (system, error) { return newTableSystem(w.ref) }
	}
	return b, nil
}

// inProcessAnswers answers every op of a query-only workload with
// Table.Match on the same rows: what the daemon must return.
func inProcessAnswers(prog *core.Program, w *workload) ([]string, error) {
	tab, err := prog.NewTable(1, singleCellRows(w.ref.left), core.Options{})
	if err != nil {
		return nil, err
	}
	// Each distinct query is matched once: a hot query repeated a thousand
	// times would otherwise cost the oracle a thousand cache hits.
	ops := append(append([]op(nil), w.warm...), w.timed...)
	at := map[string]int{}
	var texts []string
	for _, o := range ops {
		if _, ok := at[o.text]; !ok {
			at[o.text] = len(texts)
			texts = append(texts, o.text)
		}
	}
	matches, err := tab.MatchBatch(context.Background(), texts)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ops))
	for i, o := range ops {
		m := matches[at[o.text]]
		out[i] = matchAnswer(m, m.Left >= 0, o.truth).text
	}
	return out, nil
}

// runResult is a finished run in the form the contract asks for.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// epochSeconds is what one epoch of any workload takes on the 2-core box the
// sizes were chosen on. A run is --seconds/epochSeconds whole epochs: the
// number of epochs must not depend on how fast this run happens to go, or a
// median over three epochs would be compared with one over four.
const epochSeconds = 6

// measure runs seconds/epochSeconds whole epochs (at least one) and reports
// the end-to-end metrics: medians over epochs for set-up, throughput and
// memory, percentiles over the timed ops of all epochs pooled.
func (b *bench) measure(seconds float64) (*runResult, error) {
	w := b.w
	res := &runResult{Correct: true, Metrics: map[string]metric{}}
	var setups, rates, rss, pooled []float64
	var qual quality
	epochs := max(1, int(seconds/epochSeconds))
	for k := 0; k < epochs; k++ {
		e, err := runEpoch(w, b.build, nil)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", k, err)
		}
		if b.oracle == nil {
			b.oracle = e.answers
		}
		if k == 0 {
			qual = e.qual
		} else if e.qual != qual {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "bench: epoch %d quality %+v differs from epoch 0's %+v\n", k, e.qual, qual)
		}
		res.Attempted += len(e.answers)
		res.Failed += failedOps(w, e, b.oracle)
		share := hitShare(w, e.counts)
		if w.hitChecked && (share < hitShareLo || share > hitShareHi) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "bench: epoch %d hit share %.4f outside [%.2f, %.2f]\n", k, share, hitShareLo, hitShareHi)
		}
		setups = append(setups, e.setupS)
		rates = append(rates, float64(len(w.timed))/e.timedS)
		rss = append(rss, e.rssMB)
		pooled = append(pooled, e.latUS...)
		fmt.Fprintf(os.Stderr, "bench: epoch %d setup %.3fs timed %.3fs (%d ops) hit_share %.4f\n",
			k, e.setupS, e.timedS, len(w.timed), share)
	}
	if res.Failed > 0 || qual.answered == 0 || qual.withTruth == 0 {
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "bench: %d epochs, %d timed samples, tail = p%g\n", epochs, len(pooled), w.tailPct)
	err := res.emit(endToEndUnits, map[string]float64{
		"setup_s":       median(setups),
		"op_p50_us":     median(pooled),
		"op_tail_us":    percentile(pooled, w.tailPct),
		"ops_per_s":     median(rates),
		"peak_rss_mb":   median(rss),
		"precision":     qual.precision(),
		"recall":        qual.recall(),
		"precision_gap": qual.precisionGap(),
	})
	return res, err
}

// endToEndUnits names every end-to-end metric of an untraced run and its
// unit; BENCHMARK.json lists the same names (the tests compare the two).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"op_p50_us":     "us",
	"op_tail_us":    "us",
	"ops_per_s":     "1/s",
	"peak_rss_mb":   "MB",
	"precision":     "ratio",
	"recall":        "ratio",
	"precision_gap": "ratio",
}

// emit fills the result's metrics, insisting that exactly the named metrics
// were measured: a metric the harness promises is never silently missing.
func (r *runResult) emit(units map[string]string, values map[string]float64) error {
	for name := range values {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("measured %q, which is not a declared metric", name)
		}
	}
	for name, unit := range units {
		v, ok := values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q was not measured (value %v)", name, v)
		}
		r.Metrics[name] = metric{v, unit}
	}
	return nil
}
