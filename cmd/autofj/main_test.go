package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
)

// withOutput must surface a Close failure on the -out file (the write
// can land in the page cache and only fail at close — a bare deferred
// Close turned that into a truncated CSV with exit code 0). The close
// failure is simulated by closing the file out from under the writer.
func TestWithOutputPropagatesCloseError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	err := withOutput(path, io.Discard, func(out io.Writer) error {
		return out.(*os.File).Close()
	})
	if err == nil {
		t.Fatal("double close not reported")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("close error does not name the file: %v", err)
	}

	// A body error wins over the close error.
	bodyErr := errors.New("body failed")
	err = withOutput(filepath.Join(t.TempDir(), "out2.csv"), io.Discard, func(out io.Writer) error {
		out.(*os.File).Close()
		return bodyErr
	})
	if !errors.Is(err, bodyErr) {
		t.Errorf("body error lost: %v", err)
	}

	// No -out path: plain pass-through to stdout, nothing to close.
	if err := withOutput("", io.Discard, func(io.Writer) error { return nil }); err != nil {
		t.Errorf("stdout path: %v", err)
	}
}

// writeCSVFile writes a small one-column table for the CLI tests.
func writeCSVFile(t *testing.T, path, header string, rows []string) {
	t.Helper()
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, r := range rows {
		b.WriteString(r + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func cliTables(t *testing.T, dir string) (leftPath, rightPath string) {
	t.Helper()
	leftPath = filepath.Join(dir, "left.csv")
	rightPath = filepath.Join(dir, "right.csv")
	writeCSVFile(t, leftPath, "name", []string{
		"alpha research institute", "bravo research institute",
		"carol analytics bureau", "delta analytics bureau",
		"echo standards council", "foxtrot standards council",
	})
	writeCSVFile(t, rightPath, "name", []string{
		"alpha reserch institute", "carol analytics", "unrelated hospital ward",
	})
	return leftPath, rightPath
}

// TestSaveLoadApplyLoop covers the full CLI deployment loop: learn with
// -save-program, re-apply with -load-program, and check the two output
// CSVs assign the same joins.
func TestSaveLoadApplyLoop(t *testing.T) {
	dir := t.TempDir()
	leftPath, rightPath := cliTables(t, dir)
	progPath := filepath.Join(dir, "prog.json")
	learnOut := filepath.Join(dir, "learn.csv")
	applyOut := filepath.Join(dir, "apply.csv")

	var errBuf bytes.Buffer
	err := run([]string{
		"-left", leftPath, "-right", rightPath, "-tau", "0.7", "-steps", "15",
		"-space", "reduced", "-save-program", progPath, "-out", learnOut,
	}, strings.NewReader(""), io.Discard, &errBuf)
	if err != nil {
		t.Fatalf("learn: %v (stderr: %s)", err, errBuf.String())
	}
	if _, err := os.Stat(progPath); err != nil {
		t.Fatalf("program not saved: %v", err)
	}
	if !strings.Contains(errBuf.String(), "program saved to") {
		t.Errorf("stderr missing save confirmation: %s", errBuf.String())
	}

	errBuf.Reset()
	err = run([]string{
		"-left", leftPath, "-right", rightPath, "-load-program", progPath, "-out", applyOut,
	}, strings.NewReader(""), io.Discard, &errBuf)
	if err != nil {
		t.Fatalf("apply: %v (stderr: %s)", err, errBuf.String())
	}

	learned := readJoinCSV(t, learnOut)
	applied := readJoinCSV(t, applyOut)
	if len(applied) == 0 {
		t.Fatal("apply produced no joins")
	}
	if len(learned) != len(applied) {
		t.Fatalf("learned %d joins, applied %d", len(learned), len(applied))
	}
	for r, l := range learned {
		if applied[r] != l {
			t.Errorf("right %s: learned left %s, applied left %s", r, l, applied[r])
		}
	}
}

// TestAppendFlag applies a saved program with -append: the extra
// reference rows land in the table's delta and are joinable without a
// recompile, while every pre-existing join is unchanged.
func TestAppendFlag(t *testing.T) {
	dir := t.TempDir()
	leftPath, _ := cliTables(t, dir)
	// A right table with one probe row far from every reference row (the
	// learned thresholds are loose enough to absorb plain English phrases,
	// so the probe must be genuinely dissimilar).
	const probe = "zzz qq xx yy"
	rightPath := filepath.Join(dir, "right-probe.csv")
	writeCSVFile(t, rightPath, "name", []string{
		"alpha reserch institute", "carol analytics", probe,
	})
	progPath := filepath.Join(dir, "prog.json")
	if err := run([]string{
		"-left", leftPath, "-right", rightPath, "-tau", "0.7", "-steps", "15",
		"-space", "reduced", "-save-program", progPath, "-out", filepath.Join(dir, "learn.csv"),
	}, strings.NewReader(""), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	extraPath := filepath.Join(dir, "extra.csv")
	writeCSVFile(t, extraPath, "name", []string{probe})

	baseOut := filepath.Join(dir, "base.csv")
	if err := run([]string{
		"-left", leftPath, "-right", rightPath, "-load-program", progPath, "-out", baseOut,
	}, strings.NewReader(""), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	base := joinValues(t, baseOut)
	if _, ok := base[probe]; ok {
		t.Fatal("test premise broken: the probe row joined without -append")
	}

	var errBuf bytes.Buffer
	appendOut := filepath.Join(dir, "append.csv")
	if err := run([]string{
		"-left", leftPath, "-right", rightPath, "-load-program", progPath,
		"-append", extraPath, "-out", appendOut,
	}, strings.NewReader(""), io.Discard, &errBuf); err != nil {
		t.Fatalf("apply with -append: %v (stderr: %s)", err, errBuf.String())
	}
	appended := joinValues(t, appendOut)
	if got := appended[probe]; got != probe {
		t.Errorf("appended row not joined: got left %q", got)
	}
	for r, l := range base {
		if appended[r] != l {
			t.Errorf("right %q: left %q without -append, %q with", r, l, appended[r])
		}
	}
	if !strings.Contains(errBuf.String(), "appended 1 rows") {
		t.Errorf("stderr missing append log: %s", errBuf.String())
	}

	// -append only makes sense against a compiled program.
	if err := run([]string{
		"-left", leftPath, "-right", rightPath, "-append", extraPath,
	}, strings.NewReader(""), io.Discard, io.Discard); err == nil {
		t.Error("-append without -load-program accepted")
	}
}

// joinValues parses an apply-mode output CSV into right_value -> left_value.
func joinValues(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := dataset.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, row := range tab.Rows {
		out[row[2]] = row[3]
	}
	return out
}

// TestServeStdin streams queries through the compiled matcher.
func TestServeStdin(t *testing.T) {
	dir := t.TempDir()
	leftPath, rightPath := cliTables(t, dir)
	progPath := filepath.Join(dir, "prog.json")
	if err := run([]string{
		"-left", leftPath, "-right", rightPath, "-tau", "0.7", "-steps", "15",
		"-space", "reduced", "-save-program", progPath, "-out", filepath.Join(dir, "ignored.csv"),
	}, strings.NewReader(""), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	queries := "bravo reserch institute\ntotally unrelated xyz record\n"
	if err := run([]string{
		"-left", leftPath, "-load-program", progPath, "-serve-stdin",
	}, strings.NewReader(queries), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + 2 answers
		t.Fatalf("serve output: %q", out.String())
	}
	if !strings.Contains(lines[1], "bravo research institute") {
		t.Errorf("query 1 answer: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "totally unrelated xyz record,-1") {
		t.Errorf("query 2 should be unmatched: %q", lines[2])
	}
}

// TestSpaceFlag covers -space resolution: named spaces, numeric
// subspaces, and the error paths.
func TestSpaceFlag(t *testing.T) {
	cases := []struct {
		name string
		want int // expected function count; 0 means "default full space"
	}{
		{"", 0}, {"full", 0}, {"reduced", 24}, {"extended", 148}, {"17", 17},
	}
	for _, c := range cases {
		space, err := spaceFor(c.name)
		if err != nil {
			t.Fatalf("spaceFor(%q): %v", c.name, err)
		}
		if len(space) != c.want {
			t.Errorf("spaceFor(%q) = %d functions, want %d", c.name, len(space), c.want)
		}
	}
	for _, bad := range []string{"tiny", "-3", "0", "1.5", "141", "148"} {
		if _, err := spaceFor(bad); err == nil {
			t.Errorf("spaceFor(%q) accepted", bad)
		}
	}
}

// TestCLIFlagValidation covers the mode-flag error paths.
func TestCLIFlagValidation(t *testing.T) {
	dir := t.TempDir()
	leftPath, _ := cliTables(t, dir)
	if err := run([]string{"-right", leftPath}, strings.NewReader(""), io.Discard, io.Discard); err == nil {
		t.Error("missing -left accepted")
	}
	if err := run([]string{"-left", leftPath}, strings.NewReader(""), io.Discard, io.Discard); err == nil {
		t.Error("learning without -right accepted")
	}
	if err := run([]string{
		"-left", leftPath, "-load-program", "x.json", "-save-program", "y.json",
	}, strings.NewReader(""), io.Discard, io.Discard); err == nil {
		t.Error("-load-program with -save-program accepted")
	}
}

// readJoinCSV parses the output CSV into a right_row -> left_row map.
func readJoinCSV(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := dataset.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, row := range tab.Rows {
		out[row[0]] = row[1]
	}
	return out
}

// TestServeStdinSurvivesBadLines: a malformed CSV row or a wrong-arity
// row mid-stream answers with left_row -1 and a stderr diagnostic, and
// the loop keeps serving the queries behind it (it used to return the
// parse error and kill the whole server).
func TestServeStdinSurvivesBadLines(t *testing.T) {
	dir := t.TempDir()
	leftPath := filepath.Join(dir, "left.csv")
	if err := os.WriteFile(leftPath, []byte(
		"name,city\n"+
			"alpha research institute,springfield\n"+
			"bravo analytics bureau,rivertown\n"+
			"carol standards council,lakeside\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A hand-written multi-column program: no learning run needed, and it
	// requires exactly 2 cells per query row (the reference arity).
	progPath := filepath.Join(dir, "prog.json")
	if err := os.WriteFile(progPath, []byte(`{
		"version": 1,
		"configurations": [{"preprocess": "L", "distance": "ED", "threshold": 0.4}],
		"columns": [0, 1], "weights": [0.7, 0.3], "blocking_beta": 1
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := strings.Join([]string{
		"alpha reserch institute,springfield", // good
		`"unclosed quote`,                     // malformed CSV
		"too,many,cells",                      // wrong arity
		"bravo analytics bureau,rivertown",    // good — must still be served
	}, "\n") + "\n"
	var out, errBuf bytes.Buffer
	if err := run([]string{
		"-left", leftPath, "-load-program", progPath, "-serve-stdin",
	}, strings.NewReader(queries), &out, &errBuf); err != nil {
		t.Fatalf("serve exited on a bad line: %v (stderr: %s)", err, errBuf.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 { // header + 4 answers
		t.Fatalf("want 5 output lines, got %d: %q", len(lines), out.String())
	}
	if !strings.Contains(lines[1], "alpha research institute") {
		t.Errorf("good query 1 unanswered: %q", lines[1])
	}
	for _, i := range []int{2, 3} {
		if !strings.Contains(lines[i], ",-1,") {
			t.Errorf("bad query %d should answer -1: %q", i, lines[i])
		}
	}
	if !strings.Contains(lines[4], "bravo analytics bureau") {
		t.Errorf("good query after the bad ones unanswered: %q", lines[4])
	}
	diag := errBuf.String()
	if !strings.Contains(diag, "query line 2") || !strings.Contains(diag, "query line 3") {
		t.Errorf("missing per-line diagnostics: %s", diag)
	}
}
