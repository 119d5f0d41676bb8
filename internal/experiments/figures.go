package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/baselines"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// Series is a labeled (x, y...) sweep result shared by the figure
// experiments: X is the swept parameter, the remaining columns are the
// reported curves.
type Series struct {
	XLabel string
	Labels []string
	X      []float64
	Y      [][]float64 // Y[i] aligns with Labels; Y[i][k] is the value at X[k]
}

// WriteCSV emits the series as CSV (x column first), the plot-ready form
// of each figure.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{s.XLabel}, s.Labels...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for k := range s.X {
		row := make([]string, 0, len(header))
		row = append(row, strconv.FormatFloat(s.X[k], 'f', -1, 64))
		for i := range s.Labels {
			row = append(row, strconv.FormatFloat(s.Y[i][k], 'f', 6, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (s *Series) print(cfg Config, title string) {
	fmt.Fprintln(cfg.Out, title)
	w := tabwriter.NewWriter(cfg.Out, 2, 4, 1, ' ', 0)
	fmt.Fprintf(w, "%s", s.XLabel)
	for _, l := range s.Labels {
		fmt.Fprintf(w, "\t%s", l)
	}
	fmt.Fprintln(w)
	for k := range s.X {
		fmt.Fprintf(w, "%.2f", s.X[k])
		for i := range s.Labels {
			fmt.Fprintf(w, "\t%.3f", s.Y[i][k])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// Figure6a injects 0–80% irrelevant right records (drawn from the other
// tasks' right tables) and reports AutoFJ's average precision and recall.
func Figure6a(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	fracs := []float64{0, 0.2, 0.4, 0.6, 0.8}
	s := Series{XLabel: "irrelevant_frac", Labels: []string{"precision", "recall"}, X: fracs}
	s.Y = [][]float64{make([]float64, len(fracs)), make([]float64, len(fracs))}
	rng := rand.New(rand.NewSource(cfg.Seed + 61))
	// Pool of foreign records per task: records from all other tasks.
	for k, frac := range fracs {
		var ps, rs []float64
		for ti, task := range tasks {
			left, right, truth := task.LeftKey(), task.RightKey(), task.Truth
			if frac > 0 {
				// target total so that `frac` of the new R is irrelevant:
				// extra = frac/(1-frac) * |R|.
				extra := int(frac / (1 - frac) * float64(len(right)))
				right = append(append([]string{}, right...), foreignRecords(tasks, ti, extra, rng)...)
			}
			res, err := core.JoinTables(left, right, cfg.coreOptions())
			if err != nil {
				continue
			}
			ev := metrics.Evaluate(res.Mapping(), truth)
			ps = append(ps, ev.Precision)
			rs = append(rs, ev.RecallFraction)
		}
		s.Y[0][k] = metrics.Mean(ps)
		s.Y[1][k] = metrics.Mean(rs)
	}
	s.print(cfg, "Figure 6(a): irrelevant right records")
	return s
}

func foreignRecords(tasks []dataset.Task, exclude, n int, rng *rand.Rand) []string {
	var pool []string
	for ti, t := range tasks {
		if ti != exclude {
			pool = append(pool, t.RightKey()...)
		}
	}
	if len(pool) == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// Figure6b joins completely unrelated table pairs (L from one entity type,
// R from another) and reports the false-positive rate (joins produced /
// |R|) of AutoFJ versus the Excel baseline at its default threshold.
func Figure6b(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	cases := 10
	if cases > len(tasks) {
		cases = len(tasks)
	}
	s := Series{XLabel: "case", Labels: []string{"AutoFJ_FPR", "Excel_FPR"}}
	s.Y = [][]float64{nil, nil}
	const excelDefaultThreshold = 0.65
	for c := 0; c < cases; c++ {
		lTask := tasks[c]
		rTask := tasks[(c+len(tasks)/2)%len(tasks)]
		left := lTask.LeftKey()
		right := rTask.RightKey()
		res, err := core.JoinTables(left, right, cfg.coreOptions())
		if err != nil {
			continue
		}
		s.X = append(s.X, float64(c))
		s.Y[0] = append(s.Y[0], float64(len(res.Joins))/float64(len(right)))
		cands := baselines.Candidates(left, right, cfg.Beta)
		joins := baselines.NewExcel(left, right).Joins(left, right, cands)
		fp := 0
		for _, j := range joins {
			if j.Score >= excelDefaultThreshold {
				fp++
			}
		}
		s.Y[1] = append(s.Y[1], float64(fp)/float64(len(right)))
	}
	s.print(cfg, "Figure 6(b): zero-fuzzy-join false-positive rate")
	return s
}

// Figure6c removes 0–30% of the reference table and reports AutoFJ's
// average precision/recall plus Excel's adjusted recall.
func Figure6c(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	fracs := []float64{0, 0.1, 0.2, 0.3}
	s := Series{XLabel: "removed_frac", Labels: []string{"precision", "recall", "Excel_AR"}, X: fracs}
	s.Y = [][]float64{make([]float64, len(fracs)), make([]float64, len(fracs)), make([]float64, len(fracs))}
	for k, frac := range fracs {
		var ps, rs, es []float64
		for ti, task := range tasks {
			left, right, truth := task.LeftKey(), task.RightKey(), task.Truth
			if frac > 0 {
				left, truth = removeLeft(left, truth, frac, cfg.Seed+int64(ti))
			}
			res, err := core.JoinTables(left, right, cfg.coreOptions())
			if err != nil {
				continue
			}
			ev := metrics.Evaluate(res.Mapping(), truth)
			ps = append(ps, ev.Precision)
			rs = append(rs, ev.RecallFraction)
			cands := baselines.Candidates(left, right, cfg.Beta)
			joins := baselines.NewExcel(left, right).Joins(left, right, cands)
			es = append(es, metrics.AdjustedRecallFraction(joins, truth, ev.Precision))
		}
		s.Y[0][k] = metrics.Mean(ps)
		s.Y[1][k] = metrics.Mean(rs)
		s.Y[2][k] = metrics.Mean(es)
	}
	s.print(cfg, "Figure 6(c): reference-table incompleteness")
	return s
}

// removeLeft deletes a random fraction of L rows, remapping truth: pairs
// whose left record disappears become unmatched.
func removeLeft(left []string, truth metrics.Truth, frac float64, seed int64) ([]string, metrics.Truth) {
	rng := rand.New(rand.NewSource(seed))
	keep := make([]bool, len(left))
	newIdx := make([]int, len(left))
	var out []string
	for i := range left {
		if rng.Float64() >= frac {
			keep[i] = true
			newIdx[i] = len(out)
			out = append(out, left[i])
		}
	}
	nt := metrics.Truth{}
	for r, l := range truth {
		if keep[l] {
			nt[r] = newIdx[l]
		}
	}
	return out, nt
}

// Figure6d sweeps the blocking factor β and reports average precision,
// recall, and run time.
func Figure6d(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	betas := []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	s := Series{XLabel: "beta", Labels: []string{"precision", "recall", "seconds"}, X: betas}
	s.Y = [][]float64{make([]float64, len(betas)), make([]float64, len(betas)), make([]float64, len(betas))}
	for k, beta := range betas {
		opt := cfg.coreOptions()
		opt.BlockingBeta = beta
		var ps, rs, ts []float64
		for _, task := range tasks {
			t0 := time.Now()
			res, err := core.JoinTables(task.LeftKey(), task.RightKey(), opt)
			if err != nil {
				continue
			}
			ev := metrics.Evaluate(res.Mapping(), task.Truth)
			ps = append(ps, ev.Precision)
			rs = append(rs, ev.RecallFraction)
			ts = append(ts, time.Since(t0).Seconds())
		}
		s.Y[0][k] = metrics.Mean(ps)
		s.Y[1][k] = metrics.Mean(rs)
		s.Y[2][k] = metrics.Mean(ts)
	}
	s.print(cfg, "Figure 6(d): blocking sensitivity")
	return s
}

// Figure7a sweeps the precision target τ and reports the achieved average
// precision and recall plus Excel's AR at each achieved precision.
func Figure7a(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	taus := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	s := Series{XLabel: "tau", Labels: []string{"precision", "recall", "Excel_AR"}, X: taus}
	s.Y = [][]float64{make([]float64, len(taus)), make([]float64, len(taus)), make([]float64, len(taus))}
	for k, tau := range taus {
		opt := cfg.coreOptions()
		opt.PrecisionTarget = tau
		var ps, rs, es []float64
		for _, task := range tasks {
			left, right := task.LeftKey(), task.RightKey()
			res, err := core.JoinTables(left, right, opt)
			if err != nil {
				continue
			}
			ev := metrics.Evaluate(res.Mapping(), task.Truth)
			ps = append(ps, ev.Precision)
			rs = append(rs, ev.RecallFraction)
			cands := baselines.Candidates(left, right, cfg.Beta)
			joins := baselines.NewExcel(left, right).Joins(left, right, cands)
			es = append(es, metrics.AdjustedRecallFraction(joins, task.Truth, ev.Precision))
		}
		s.Y[0][k] = metrics.Mean(ps)
		s.Y[1][k] = metrics.Mean(rs)
		s.Y[2][k] = metrics.Mean(es)
	}
	s.print(cfg, "Figure 7(a): varying target precision")
	return s
}

// Figure7b buckets the tasks by |L|×|R| and reports mean running time per
// method and bucket.
func Figure7b(cfg Config) Series {
	cfg = cfg.withDefaults()
	tasks := tasksFor(cfg)
	type sized struct {
		t    dataset.Task
		size float64
	}
	all := make([]sized, len(tasks))
	for i, t := range tasks {
		all[i] = sized{t, float64(t.Left.NumRows()) * float64(t.Right.NumRows())}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].size < all[b].size })
	buckets := 5
	if buckets > len(all) {
		buckets = len(all)
	}
	var methodNames []string
	perBucket := make([]map[string][]float64, buckets)
	for b := 0; b < buckets; b++ {
		perBucket[b] = map[string][]float64{}
		lo := b * len(all) / buckets
		hi := (b + 1) * len(all) / buckets
		for _, st := range all[lo:hi] {
			res := RunSingleTask(st.t, cfg)
			for m, d := range res.MethodTime {
				perBucket[b][m] = append(perBucket[b][m], d.Seconds())
			}
		}
	}
	for m := range perBucket[0] {
		methodNames = append(methodNames, m)
	}
	sort.Strings(methodNames)
	s := Series{XLabel: "bucket", Labels: methodNames}
	s.Y = make([][]float64, len(methodNames))
	for b := 0; b < buckets; b++ {
		s.X = append(s.X, float64(b+1))
		for i, m := range methodNames {
			s.Y[i] = append(s.Y[i], metrics.Mean(perBucket[b][m]))
		}
	}
	s.print(cfg, "Figure 7(b): running time by dataset size bucket (seconds)")
	return s
}

// Figure7c sweeps the configuration-space size and reports average
// precision/recall plus Excel's AR at AutoFJ's achieved precision.
func Figure7c(cfg Config) Series {
	cfg = cfg.withDefaults()
	sizes := []int{24, 48, 96, 140}
	s := Series{XLabel: "space_size", Labels: []string{"precision", "recall", "Excel_AR"}}
	s.Y = [][]float64{nil, nil, nil}
	tasks := tasksFor(cfg)
	for _, size := range sizes {
		sub := cfg
		sub.Space = config.SpaceOfSize(size)
		var ps, rs, es []float64
		for _, task := range tasks {
			left, right := task.LeftKey(), task.RightKey()
			res, err := core.JoinTables(left, right, sub.coreOptions())
			if err != nil {
				continue
			}
			ev := metrics.Evaluate(res.Mapping(), task.Truth)
			ps = append(ps, ev.Precision)
			rs = append(rs, ev.RecallFraction)
			cands := baselines.Candidates(left, right, cfg.Beta)
			joins := baselines.NewExcel(left, right).Joins(left, right, cands)
			es = append(es, metrics.AdjustedRecallFraction(joins, task.Truth, ev.Precision))
		}
		s.X = append(s.X, float64(size))
		s.Y[0] = append(s.Y[0], metrics.Mean(ps))
		s.Y[1] = append(s.Y[1], metrics.Mean(rs))
		s.Y[2] = append(s.Y[2], metrics.Mean(es))
	}
	s.print(cfg, "Figure 7(c): varying configuration-space size")
	return s
}

// Figure7d sweeps the configuration-space size and reports the mean
// per-component running time (blocking, building the records'
// representations, pre-compute, greedy search). total_s is their sum
// (Timing.Total): on more than one worker blocking and building overlap,
// so it exceeds the wall time by the overlap.
func Figure7d(cfg Config) Series {
	cfg = cfg.withDefaults()
	sizes := []int{24, 48, 96, 140}
	s := Series{XLabel: "space_size", Labels: []string{"blocking_s", "profile_s", "precompute_s", "greedy_s", "total_s"}}
	s.Y = make([][]float64, len(s.Labels))
	tasks := tasksFor(cfg)
	for _, size := range sizes {
		sub := cfg
		sub.Space = config.SpaceOfSize(size)
		var bl, pr, pc, gr, tot []float64
		for _, task := range tasks {
			res, err := core.JoinTables(task.LeftKey(), task.RightKey(), sub.coreOptions())
			if err != nil {
				continue
			}
			bl = append(bl, res.Timing.Blocking.Seconds())
			pr = append(pr, res.Timing.Profile.Seconds())
			pc = append(pc, res.Timing.Precompute.Seconds())
			gr = append(gr, res.Timing.Greedy.Seconds())
			tot = append(tot, res.Timing.Total().Seconds())
		}
		s.X = append(s.X, float64(size))
		for i, v := range [][]float64{bl, pr, pc, gr, tot} {
			s.Y[i] = append(s.Y[i], metrics.Mean(v))
		}
	}
	s.print(cfg, "Figure 7(d): per-component time vs configuration-space size (total_s sums the components; blocking_s and profile_s overlap)")
	return s
}
