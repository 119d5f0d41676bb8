// Command bench is the repository's benchmark: four workloads against the
// learned join program, measured from outside through public functions.
// Run it from the repository root through bench/run.sh; see bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// spec is BENCHMARK.json: the names, units, directions and bounds of the
// metrics. The harness reads it for -aa and the tests hold the two in step.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed every measured input is generated from")
		seconds = flag.Float64("seconds", 18, "the run is seconds/6 whole epochs (at least one)")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and the span file")
		aa      = flag.Bool("aa", false, "run every workload twice and compare the two sets against the bounds")
	)
	flag.Parse()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	//autofj:leak-ok the signal handler lives as long as the process by design
	go func() {
		<-sigc
		cleanupAll()
		os.Exit(130)
	}()

	err := func() error {
		defer cleanupAll() // also runs when run panics
		if *aa {
			return runAA(*seed, *seconds)
		}
		return run(*name, *seed, *seconds, *trace != 0)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("the run failed its own checks (see above)")

// run measures one workload and prints the result as the last line of
// standard output.
func run(name string, seed int64, seconds float64, trace bool) error {
	if name == "" {
		return fmt.Errorf("need -workload (one of %s) or -aa", strings.Join(workloadNames, ", "))
	}
	b, err := prepare(name, seed, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d sequence=%s nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		name, seed, b.w.sequenceHash(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var res *runResult
	if trace {
		res, err = b.trace()
	} else {
		res, err = b.measure(seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// trace is the traced run: one epoch without spans and one with gives the
// tracing overhead and the workload's own cache ratios; then every layer is
// replayed on the workload's inputs. End-to-end numbers never come from here.
func (b *bench) trace() (*runResult, error) {
	w := b.w
	plain, err := runEpoch(w, b.build, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := runEpoch(w, b.build, rec)
	if err != nil {
		return nil, err
	}
	if b.oracle == nil {
		b.oracle = plain.answers
	}
	res := &runResult{
		Attempted: len(plain.answers) + len(traced.answers),
		Failed:    failedOps(w, plain, b.oracle) + failedOps(w, traced, b.oracle),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0

	in := replayInputOf(w)
	in.dir, in.daemonBin = b.dir, b.daemonBin
	m, err := replayLayers(in, rec)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	c := traced.counts
	m["core.querycache_hit_ratio"] = ratio(c.coreHits, c.coreMisses)
	m["serve.cache_hit_ratio"] = ratio(c.serveHits, c.serveMisses)
	m["serve.normcache_hit_ratio"] = 0
	m["serve.batch_size_avg"] = 0
	if c.batches > 0 { // the workload ran behind serve: the core cache is serve's normalization cache
		m["serve.normcache_hit_ratio"] = m["core.querycache_hit_ratio"]
		m["serve.batch_size_avg"] = float64(c.batchedQueries) / float64(c.batches)
	}
	m["trace.overhead_ratio"] = plain.timedS / traced.timedS

	spanFile := filepath.Join(buildDir, "trace-"+w.name+".json")
	if err := rec.writeFile(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(rec.spans), spanFile)
	return res, res.emit(perLayerUnits, m)
}

// perLayerUnits names every per-layer metric of the traced run and its unit.
var perLayerUnits = map[string]string{
	"textproc.apply_us_per_query":      "us",
	"tokenize.tokens_us_per_query":     "us",
	"embed.embed_us_per_query":         "us",
	"blocking.index_build_ms":          "ms",
	"blocking.topk_us_per_query":       "us",
	"blocking.table_topk_us_per_query": "us",
	"blocking.candidates_per_query":    "count",
	"blocking.truth_in_topk_ratio":     "ratio",
	"negrule.blocks_ns_per_pair":       "ns",
	"negrule.veto_ratio":               "ratio",
	"weights.stats_build_ms":           "ms",
	"config.profile_us_per_record":     "us",
	"config.arena_build_ms":            "ms",
	"config.eval_ns_per_pair":          "ns",
	"distance.setfamily_ns_per_pair":   "ns",
	"distance.char_ns_per_pair":        "ns",
	"config.arena_eval_ns_per_pair":    "ns",
	"core.learn_blocking_ms":           "ms",
	"core.learn_precompute_ms":         "ms",
	"core.learn_greedy_ms":             "ms",
	"core.program_configs":             "count",
	"core.compile_ms":                  "ms",
	"core.match_cold_us":               "us",
	"core.match_warm_us":               "us",
	"core.match_warm_allocs":           "count",
	"core.match_delta_us":              "us",
	"core.add_us":                      "us",
	"core.remove_us":                   "us",
	"core.compact_ms":                  "ms",
	"core.querycache_hit_ratio":        "ratio",
	"core.snapshot_save_ms":            "ms",
	"core.snapshot_load_ms":            "ms",
	"core.snapshot_bytes_per_row":      "B",
	"serve.query_hit_us":               "us",
	"serve.query_miss_us":              "us",
	"serve.cache_hit_ratio":            "ratio",
	"serve.batch_size_avg":             "count",
	"serve.normcache_hit_ratio":        "ratio",
	"autofjd.boot_s":                   "s",
	"autofjd.http_self_us":             "us",
	"autofjd.cpu_us_per_op":            "us",
	"trace.overhead_ratio":             "ratio",
}

// runAA runs every workload twice with the same seed, the second set in
// reverse order, and compares each end-to-end metric of the second set with
// the first against the metric's bound.
func runAA(seed int64, seconds float64) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(name string) (*runResult, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		return &r, nil
	}
	sets := [2]map[string]*runResult{{}, {}}
	for pass := range sets {
		for i := range workloadNames {
			name := workloadNames[i]
			if pass == 1 {
				name = workloadNames[len(workloadNames)-1-i]
			}
			if sets[pass][name], err = one(name); err != nil {
				return err
			}
		}
	}
	exceeded := 0
	fmt.Printf("%-13s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, name := range workloadNames {
		for _, ms := range sp.EndToEnd {
			a, b := sets[0][name].Metrics[ms.Name].Value, sets[1][name].Metrics[ms.Name].Value
			worse := worsening(a, b, ms.Better)
			mark := ""
			if worse > ms.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-13s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", name, ms.Name, a, b, 100*worse, 100*ms.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) worsened by more than their bound between two runs of the same code", exceeded)
	}
	return nil
}

// commit names the checked-out commit by reading .git directly; a checkout
// that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown" // a packed ref; not worth a parser here
		}
		h = strings.TrimSpace(string(data))
	}
	if len(h) > 12 {
		h = h[:12]
	}
	return h
}
