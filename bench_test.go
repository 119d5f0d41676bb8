package autofj

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablation benches
// for the design choices (blocking, union-of-configurations, negative
// rules, threshold discretization). Sizes are scaled down so the full
// suite runs in minutes; shapes, not absolute numbers, are the target.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/experiments"
)

// benchCfg is the shared small-scale experiment configuration.
func benchCfg() experiments.Config {
	return experiments.Config{
		TaskIDs: []int{0, 3, 5, 9},
		Scale:   0.12,
		Seed:    1,
		Space:   config.ReducedSpace(),
		Steps:   15,
	}
}

func benchTask(b *testing.B) ([]string, []string) {
	b.Helper()
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 0.2})
	return task.LeftKey(), task.RightKey()
}

// BenchmarkJoinCore times one end-to-end single-column AutoFJ run.
func BenchmarkJoinCore(b *testing.B) {
	left, right := benchTask(b)
	opt := Options{Space: ReducedSpace(), ThresholdSteps: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(left, right, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinCoreFullSpace times the full 140-function space.
func BenchmarkJoinCoreFullSpace(b *testing.B) {
	left, right := benchTask(b)
	opt := Options{ThresholdSteps: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Join(left, right, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table benches ---

// BenchmarkTable2AutoFJ regenerates the headline comparison (Table 2).
func BenchmarkTable2AutoFJ(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(cfg)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable5PRAUC regenerates the PR-AUC comparison (Table 5).
func BenchmarkTable5PRAUC(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Table5(cfg)
	}
}

// BenchmarkTable6Reduced regenerates the 24-configuration study (Table 6).
func BenchmarkTable6Reduced(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Table6(cfg)
	}
}

// BenchmarkTable4MultiColumn regenerates the multi-column comparison
// (Table 4a; Table 3's inventory is implicit in the task generation).
func BenchmarkTable4MultiColumn(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.08
	cfg.Steps = 10
	for i := 0; i < b.N; i++ {
		res := experiments.Table4a(cfg)
		if len(res.Rows) != 8 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkTable4bRandomColumns regenerates the random-column robustness
// test (Table 4b).
func BenchmarkTable4bRandomColumns(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.06
	cfg.Steps = 8
	for i := 0; i < b.N; i++ {
		experiments.Table4b(cfg)
	}
}

// BenchmarkTable7MultiPRAUC regenerates the multi-column PR-AUC (Table 7).
func BenchmarkTable7MultiPRAUC(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.08
	cfg.Steps = 10
	for i := 0; i < b.N; i++ {
		experiments.Table7(cfg)
	}
}

// --- Figure benches ---

// BenchmarkFigure6aIrrelevant regenerates the irrelevant-records
// robustness sweep (Figure 6a).
func BenchmarkFigure6aIrrelevant(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Figure6a(cfg)
	}
}

// BenchmarkFigure6bZeroJoin regenerates the zero-join false-positive test
// (Figure 6b).
func BenchmarkFigure6bZeroJoin(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3, 5, 9}
	for i := 0; i < b.N; i++ {
		experiments.Figure6b(cfg)
	}
}

// BenchmarkFigure6cIncompleteL regenerates the L-incompleteness sweep
// (Figure 6c).
func BenchmarkFigure6cIncompleteL(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Figure6c(cfg)
	}
}

// BenchmarkFigure6dBlocking regenerates the blocking-factor sweep
// (Figure 6d).
func BenchmarkFigure6dBlocking(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Figure6d(cfg)
	}
}

// BenchmarkFigure7aVaryTau regenerates the precision-target sweep
// (Figure 7a).
func BenchmarkFigure7aVaryTau(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 3}
	for i := 0; i < b.N; i++ {
		experiments.Figure7a(cfg)
	}
}

// BenchmarkFigure7bTiming regenerates the running-time comparison
// (Figure 7b).
func BenchmarkFigure7bTiming(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0, 1, 3, 5}
	for i := 0; i < b.N; i++ {
		experiments.Figure7b(cfg)
	}
}

// BenchmarkFigure7cVarySpace regenerates the configuration-space-size
// quality sweep (Figure 7c).
func BenchmarkFigure7cVarySpace(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0}
	for i := 0; i < b.N; i++ {
		experiments.Figure7c(cfg)
	}
}

// BenchmarkFigure7dComponents regenerates the per-component timing sweep
// (Figure 7d).
func BenchmarkFigure7dComponents(b *testing.B) {
	cfg := benchCfg()
	cfg.TaskIDs = []int{0}
	for i := 0; i < b.N; i++ {
		experiments.Figure7d(cfg)
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationUnionVsSingle compares full AutoFJ with the UC ablation.
func BenchmarkAblationUnionVsSingle(b *testing.B) {
	left, right := benchTask(b)
	for _, mode := range []struct {
		name   string
		single bool
	}{{"union", false}, {"single", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.Options{
				Space: config.ReducedSpace(), ThresholdSteps: 15,
				SingleConfiguration: mode.single,
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNegativeRules measures the negative-rule overhead.
func BenchmarkAblationNegativeRules(b *testing.B) {
	left, right := benchTask(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with-rules", false}, {"without-rules", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.Options{
				Space: config.ReducedSpace(), ThresholdSteps: 15,
				DisableNegativeRules: mode.disable,
			}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBlockingBeta measures cost growth with the candidate
// budget.
func BenchmarkAblationBlockingBeta(b *testing.B) {
	left, right := benchTask(b)
	for _, beta := range []float64{0.5, 1.0, 2.0} {
		b.Run(map[float64]string{0.5: "beta0.5", 1.0: "beta1", 2.0: "beta2"}[beta], func(b *testing.B) {
			opt := core.Options{Space: config.ReducedSpace(), ThresholdSteps: 15, BlockingBeta: beta}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBallRadius sweeps the precision-estimation ball factor
// (Eq. 8 uses 2; smaller balls are optimistic, larger pessimistic).
func BenchmarkAblationBallRadius(b *testing.B) {
	left, right := benchTask(b)
	for _, f := range []float64{1.0, 2.0, 3.0} {
		b.Run(map[float64]string{1.0: "r1", 2.0: "r2", 3.0: "r3"}[f], func(b *testing.B) {
			opt := core.Options{Space: config.ReducedSpace(), ThresholdSteps: 15, BallRadiusFactor: f}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExtendedSpace compares the Table 1 space against the
// 148-function extended space (Monge-Elkan + Smith-Waterman).
func BenchmarkAblationExtendedSpace(b *testing.B) {
	left, right := benchTask(b)
	for _, mode := range []struct {
		name  string
		space []config.JoinFunction
	}{{"table1-140", config.Space()}, {"extended-148", config.ExtendedSpace()}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := core.Options{Space: mode.space, ThresholdSteps: 15}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelfJoinDedup times the deduplication extension.
func BenchmarkSelfJoinDedup(b *testing.B) {
	task := benchgen.SingleColumnTask(3, benchgen.Options{Seed: 1, Scale: 0.15})
	records := task.LeftKey()
	opt := core.Options{Space: config.ReducedSpace(), ThresholdSteps: 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Dedup(records, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramApply times re-applying a saved program (deployment
// path) versus learning from scratch.
func BenchmarkProgramApply(b *testing.B) {
	left, right := benchTask(b)
	res, err := core.JoinTables(left, right, core.Options{Space: config.ReducedSpace(), ThresholdSteps: 15})
	if err != nil {
		b.Fatal(err)
	}
	prog := res.ToProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Apply(left, right); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving benches: the mutable table (segments + delta) ---

// servingProgram is a fixed two-configuration program so the serving
// benches measure the query path, not a learning run.
func servingProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []core.ConfigurationSpec{
			{Preprocess: "L", Distance: "ED", Threshold: 0.25},
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.35},
		},
		BlockingBeta: 1.0,
	}
}

// benchTable10k compiles the serving program against a 10k-row reference
// table through the mutable-table path.
func benchTable10k(b *testing.B, opt Options) *Table {
	b.Helper()
	left, _ := blockingBenchTables(10000, 1)
	rows := make([][]string, len(left))
	for i, v := range left {
		rows[i] = []string{v}
	}
	tab, err := servingProgram().NewTable(1, rows, opt)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTableAdd times appending one reference row into the mutable
// delta of a compiled 10k-row table — the incremental path that exists
// to avoid a full recompile (the benchmark ledger records it as
// core.add_us beside core.compile_ms).
func BenchmarkTableAdd(b *testing.B) {
	tab := benchTable10k(b, Options{})
	row := make([][]string, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row[0] = []string{fmt.Sprintf("appended reference record %d", i)}
		if _, err := tab.Add(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableMatchWithDelta measures per-query latency when answers
// must merge the compiled segments with a populated delta (256 rows) —
// the steady state between compactions. The result cache is off so that
// every op scores, however many times the query set wraps.
func BenchmarkTableMatchWithDelta(b *testing.B) {
	tab := benchTable10k(b, Options{QueryCacheSize: -1})
	_, right := blockingBenchTables(1, 2000)
	extra := make([][]string, 256)
	for i := range extra {
		extra[i] = []string{fmt.Sprintf("delta resident record %d", i)}
	}
	if _, err := tab.Add(extra); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Match(ctx, right[i%len(right)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad times booting a 10k-row table from its binary
// index snapshot — the restart path that skips the compile entirely
// (the benchmark ledger records it as core.snapshot_load_ms beside
// core.compile_ms).
func BenchmarkSnapshotLoad(b *testing.B) {
	tab := benchTable10k(b, Options{})
	path := filepath.Join(b.TempDir(), "bench.afjs")
	if err := tab.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadTableFile(path, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelism measures the pre-computation fan-out.
func BenchmarkParallelism(b *testing.B) {
	left, right := benchTask(b)
	for _, p := range []int{1, 4} {
		b.Run(map[int]string{1: "sequential", 4: "parallel4"}[p], func(b *testing.B) {
			opt := core.Options{ThresholdSteps: 15, Parallelism: p}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockingBenchTables synthesizes a ≥10k-record reference table and query
// table for the blocking-layer benchmarks.
func blockingBenchTables(nLeft, nRight int) (left, right []string) {
	rng := rand.New(rand.NewSource(17))
	adj := []string{"northern", "southern", "united", "royal", "national", "central",
		"pacific", "metropolitan", "first", "imperial"}
	noun := []string{"institute", "university", "museum", "society", "college",
		"laboratory", "federation", "observatory", "council", "bureau"}
	field := []string{"science", "history", "technology", "arts", "medicine",
		"commerce", "astronomy", "agriculture"}
	gen := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s %s of %s %d", adj[rng.Intn(len(adj))],
				noun[rng.Intn(len(noun))], field[rng.Intn(len(field))], rng.Intn(300))
		}
		return out
	}
	return gen(nLeft), gen(nRight)
}

// BenchmarkBlockingEndToEnd times a full join whose blocking layer
// dominates (large table, reduced space), sequential versus all-core.
func BenchmarkBlockingEndToEnd(b *testing.B) {
	left, right := blockingBenchTables(3000, 600)
	ps := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ps = append(ps, n)
	}
	for _, p := range ps {
		name := "sequential"
		if p != 1 {
			name = fmt.Sprintf("parallel%d", p)
		}
		b.Run(name, func(b *testing.B) {
			opt := core.Options{Space: config.ReducedSpace(), ThresholdSteps: 10, Parallelism: p}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationThresholdSteps measures the cost of finer threshold
// grids (s = 10 vs 50 vs 100).
func BenchmarkAblationThresholdSteps(b *testing.B) {
	left, right := benchTask(b)
	for _, s := range []int{10, 50, 100} {
		b.Run(map[int]string{10: "s10", 50: "s50", 100: "s100"}[s], func(b *testing.B) {
			opt := core.Options{Space: config.ReducedSpace(), ThresholdSteps: s}
			for i := 0; i < b.N; i++ {
				if _, err := core.JoinTables(left, right, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
