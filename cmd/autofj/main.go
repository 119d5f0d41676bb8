// Command autofj joins two CSV tables with Auto-FuzzyJoin.
//
// Learn and join in one run (uses the named or first column as the join
// key; add -save-program to keep the learned program):
//
//	autofj -left l.csv -right r.csv -column name -tau 0.9 -out joins.csv
//	autofj -left l.csv -right r.csv -save-program prog.json
//
// The searched configuration space is selectable: -space full (default,
// 140 functions), -space reduced (24), -space extended (148, adds the
// Monge-Elkan and Smith-Waterman extension distances), or -space N for a
// nested N-function subspace:
//
//	autofj -left l.csv -right r.csv -space extended
//
// Multi-column (all columns, automatic column selection):
//
//	autofj -left l.csv -right r.csv -multi -tau 0.9
//
// Apply a saved program to fresh data without re-learning (the program is
// compiled once against the reference table, then the whole right table
// is matched):
//
//	autofj -left l.csv -right r2.csv -load-program prog.json
//
// Append extra reference rows AFTER compiling, without recompiling the
// whole table (they land in the table's mutable delta — answers are
// bit-identical to compiling the union):
//
//	autofj -left l.csv -append extra.csv -right r2.csv -load-program prog.json
//
// Serve queries from stdin, one record per line (a CSV row per line when
// the program is multi-column), answering each line as it arrives:
//
//	autofj -left l.csv -load-program prog.json -serve-stdin < queries.txt
//
// Join output CSV has columns right_row,left_row,right_value,left_value,
// estimated_precision; serve output has query,left_row,left_value,
// distance,estimated_precision (left_row -1 for no match). A malformed
// serve query line (e.g. a bad CSV row, or the wrong number of cells for
// a multi-column program) also answers with left_row -1 plus a
// diagnostic on stderr — the serving loop never exits because of one bad
// query. The join program is printed to stderr.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	autofj "github.com/chu-data-lab/autofuzzyjoin-go"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "autofj:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("autofj", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		leftPath   = fs.String("left", "", "reference table CSV (required)")
		rightPath  = fs.String("right", "", "query table CSV (required unless serving a loaded program)")
		column     = fs.String("column", "", "join key column name (default: first column)")
		multi      = fs.Bool("multi", false, "use all columns (multi-column AutoFJ)")
		tau        = fs.Float64("tau", 0.9, "precision target")
		steps      = fs.Int("steps", 50, "threshold discretization steps")
		beta       = fs.Float64("beta", 1.0, "blocking factor")
		space      = fs.String("space", "", "configuration space: full (default), reduced, extended, or a positive integer N for a nested N-function subspace")
		parallel   = fs.Int("parallelism", 0, "worker goroutines (0 = all CPUs, 1 = sequential)")
		outPath    = fs.String("out", "", "output CSV (default stdout)")
		savePath   = fs.String("save-program", "", "after learning, write the join program JSON here")
		loadPath   = fs.String("load-program", "", "load a saved program JSON instead of learning")
		appendPath = fs.String("append", "", "CSV of extra reference rows, appended to the compiled table's delta (requires -load-program)")
		serveFlag  = fs.Bool("serve-stdin", false, "serve queries from stdin, one per line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *leftPath == "" {
		fs.Usage()
		return errors.New("-left is required")
	}
	if *loadPath != "" && *savePath != "" {
		return errors.New("-save-program only makes sense when learning (drop -load-program)")
	}
	if *appendPath != "" && *loadPath == "" {
		return errors.New("-append requires -load-program (a learning run reads all reference rows from -left)")
	}
	left, err := serve.ReadCSVFile(*leftPath)
	if err != nil {
		return err
	}
	var right dataset.Table
	if *rightPath != "" {
		if right, err = serve.ReadCSVFile(*rightPath); err != nil {
			return err
		}
	}

	opt := autofj.Options{
		PrecisionTarget: *tau,
		ThresholdSteps:  *steps,
		BlockingBeta:    *beta,
		Parallelism:     *parallel,
	}
	if opt.Space, err = spaceFor(*space); err != nil {
		return err
	}

	// Phase 1: obtain a program — load a saved one, or learn it now.
	var prog *autofj.Program
	var res *autofj.Result
	if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			return err
		}
		if prog, err = autofj.LoadProgram(data); err != nil {
			return err
		}
	} else {
		if *rightPath == "" {
			fs.Usage()
			return errors.New("-right is required when learning (no -load-program)")
		}
		if *multi {
			res, err = autofj.JoinMultiColumn(left.AllColumns(), right.AllColumns(), opt)
		} else {
			var leftVals, rightVals []string
			if leftVals, err = serve.KeyColumn(left, *column); err != nil {
				return err
			}
			if rightVals, err = serve.KeyColumn(right, *column); err != nil {
				return err
			}
			res, err = autofj.Join(leftVals, rightVals, opt)
		}
		if err != nil {
			return err
		}
		prog = res.ToProgram()
		fmt.Fprintf(stderr, "program: %s\n", res.ProgramString())
		fmt.Fprintf(stderr, "estimated precision %.3f, %d joins\n", res.EstPrecision, len(res.Joins))
		if len(res.Columns) > 0 {
			fmt.Fprintf(stderr, "selected columns:")
			for i, c := range res.Columns {
				fmt.Fprintf(stderr, " %s:%.2f", left.Columns[c], res.Weights[i])
			}
			fmt.Fprintln(stderr)
		}
		if *savePath != "" {
			data, err := prog.Encode()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*savePath, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "program saved to %s\n", *savePath)
		}
	}

	// Phase 2: serve, apply, or emit the learned joins. All output goes
	// through withOutput so a failing Close on -out (full disk, quota)
	// surfaces as an error instead of a silently truncated CSV.
	if *serveFlag {
		tab, err := buildTable(prog, left, *column, *appendPath, opt, stderr)
		if err != nil {
			return err
		}
		return withOutput(*outPath, stdout, func(out io.Writer) error {
			return serveStdin(tab, stdin, out, stderr)
		})
	}

	if res != nil {
		// Learned this run: emit the learning-time join assignment.
		leftVals, rightVals, err := outputValues(prog, left, right, *column, *multi)
		if err != nil {
			return err
		}
		result := joinTable()
		for _, j := range res.Joins {
			result.Rows = append(result.Rows, []string{
				strconv.Itoa(j.Right), strconv.Itoa(j.Left),
				rightVals[j.Right], leftVals[j.Left],
				strconv.FormatFloat(j.Precision, 'f', 4, 64),
			})
		}
		return withOutput(*outPath, stdout, result.WriteCSV)
	}

	// Loaded program: compile the mutable table once against the reference
	// rows (plus any -append delta), match the whole right table.
	if *rightPath == "" {
		fs.Usage()
		return errors.New("-right is required to apply a loaded program (or add -serve-stdin)")
	}
	tab, err := buildTable(prog, left, *column, *appendPath, opt, stderr)
	if err != nil {
		return err
	}
	var rows [][]string
	var rightVals []string
	if tab.MultiColumn() {
		rightVals = serve.ConcatRows(right)
		rows = right.Rows
	} else {
		if rightVals, err = serve.KeyColumn(right, *column); err != nil {
			return err
		}
		rows = make([][]string, len(rightVals))
		for i, v := range rightVals {
			rows[i] = []string{v}
		}
	}
	tb, err := tab.MatchBatchAt(context.Background(), rows)
	if err != nil {
		return err
	}
	result := joinTable()
	for r, m := range tb.Matches {
		if m.Left < 0 {
			continue
		}
		result.Rows = append(result.Rows, []string{
			strconv.Itoa(r), strconv.Itoa(m.Left),
			rightVals[r], core.DisplayRow(tb.Rows[r], tab.MultiColumn()),
			strconv.FormatFloat(m.Precision, 'f', 4, 64),
		})
	}
	return withOutput(*outPath, stdout, result.WriteCSV)
}

// buildTable compiles the serving table for a loaded (or just-learned)
// program and appends the -append rows into its delta: the cheap
// incremental path — no recompile of the existing reference rows.
func buildTable(prog *autofj.Program, left dataset.Table, column, appendPath string, opt autofj.Options, stderr io.Writer) (*autofj.Table, error) {
	tab, err := serve.CompileTable(prog, left, column, opt)
	if err != nil {
		return nil, err
	}
	if appendPath == "" {
		return tab, nil
	}
	extra, err := serve.ReadCSVFile(appendPath)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	if tab.MultiColumn() {
		if len(extra.Columns) != tab.RowWidth() {
			return nil, fmt.Errorf("-append table has %d columns, program wants %d", len(extra.Columns), tab.RowWidth())
		}
		rows = extra.Rows
	} else {
		keys, err := serve.KeyColumn(extra, column)
		if err != nil {
			return nil, err
		}
		rows = make([][]string, len(keys))
		for i, k := range keys {
			rows[i] = []string{k}
		}
	}
	if _, err := tab.Add(rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "appended %d rows from %s (%d reference records)\n", len(rows), appendPath, tab.Len())
	return tab, nil
}

// withOutput runs fn against stdout or the -out file. The file's Close
// error is checked and propagated (unless fn already failed): write(2)
// can succeed into the page cache and the flush only fail at close, so a
// bare deferred Close would turn a full disk into exit code 0.
func withOutput(path string, stdout io.Writer, fn func(io.Writer) error) error {
	if path == "" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing %s: %w", path, cerr)
	}
	return err
}

// spaceFor resolves the -space flag: the full Table 1 space (default),
// the paper's reduced 24-function space, the extended 148-function space
// with the ME/SW extension distances, or a nested N-function subspace
// for configuration-space-size experiments.
func spaceFor(name string) ([]autofj.JoinFunction, error) {
	switch name {
	case "", "full":
		return nil, nil // Options' default: the full 140-function space
	case "reduced":
		return autofj.ReducedSpace(), nil
	case "extended":
		return autofj.ExtendedSpace(), nil
	}
	n, err := strconv.Atoi(name)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("invalid -space %q: want full, reduced, extended, or a positive function count", name)
	}
	if full := len(autofj.FullSpace()); n > full {
		// SpaceOfSize would silently clamp; surface the ceiling instead so
		// "-space 148" does not quietly run without the extension distances.
		return nil, fmt.Errorf("-space %d exceeds the %d-function full space; use -space full or -space extended", n, full)
	}
	return autofj.SpaceOfSize(n), nil
}

// joinTable is the shared output schema of the learn and apply modes.
func joinTable() dataset.Table {
	return dataset.Table{
		Columns: []string{"right_row", "left_row", "right_value", "left_value", "estimated_precision"},
	}
}

// outputValues picks the display values for the learn-mode join CSV.
func outputValues(prog *autofj.Program, left, right dataset.Table, column string, multi bool) (leftVals, rightVals []string, err error) {
	if multi || len(prog.Columns) > 0 {
		return serve.ConcatRows(left), serve.ConcatRows(right), nil
	}
	if leftVals, err = serve.KeyColumn(left, column); err != nil {
		return nil, nil, err
	}
	if rightVals, err = serve.KeyColumn(right, column); err != nil {
		return nil, nil, err
	}
	return leftVals, rightVals, nil
}

// serveStdin answers one query per input line against the compiled
// table, flushing each answer as it is produced (to stdout or -out).
// Multi-column programs take a CSV row per line.
//
// A malformed or wrong-arity line answers with an error record (left_row
// -1, like a no-match) plus a diagnostic on stderr, and serving
// continues: one bad query must never take down the loop and everything
// queued behind it. Only write failures on the output end the loop.
func serveStdin(tab *autofj.Table, stdin io.Reader, out, stderr io.Writer) error {
	fmt.Fprintf(stderr, "serving %d reference records; one query per line\n", tab.Len())
	w := csv.NewWriter(out)
	if err := w.Write([]string{"query", "left_row", "left_value", "distance", "estimated_precision"}); err != nil {
		return err
	}
	w.Flush()
	ctx := context.Background()
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		var m autofj.Match
		var ok bool
		var qerr error
		if tab.MultiColumn() {
			var row []string
			if row, qerr = csv.NewReader(strings.NewReader(line)).Read(); qerr == nil {
				m, ok, qerr = tab.MatchRow(ctx, row)
			}
		} else {
			m, ok, qerr = tab.Match(ctx, line)
		}
		rec := []string{line, "-1", "", "", ""}
		if qerr != nil {
			ok = false
			fmt.Fprintf(stderr, "autofj: query line %d: %v\n", lineNo, qerr)
		}
		if ok {
			leftRow, rerr := tab.Row(m.Left)
			if rerr != nil {
				return rerr
			}
			rec = []string{
				line, strconv.Itoa(m.Left), core.DisplayRow(leftRow, tab.MultiColumn()),
				strconv.FormatFloat(m.Distance, 'f', 4, 64),
				strconv.FormatFloat(m.Precision, 'f', 4, 64),
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	return sc.Err()
}
