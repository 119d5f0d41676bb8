package core

import (
	"context"
	"errors"
	"iter"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// ewSpace is a corpus-statistics-free configuration space (equal token
// weights only, no IDF): a serving handle computes IDF over the
// reference table alone while learning sees both tables, so exact
// learn/serve round-trip guarantees hold on spaces that don't consult
// corpus statistics.
func ewSpace() []config.JoinFunction {
	pres := []textproc.Option{textproc.Lower, textproc.LowerStemRemovePunct}
	var out []config.JoinFunction
	for _, pre := range pres {
		for _, d := range []config.Distance{config.ED, config.JW} {
			out = append(out, config.JoinFunction{Pre: pre, Dist: d})
		}
	}
	for _, pre := range pres {
		for _, tok := range tokenize.Options() {
			for _, d := range []config.Distance{config.JD, config.CD, config.DD, config.MD, config.ID} {
				out = append(out, config.JoinFunction{Pre: pre, Tok: tok, Weight: weights.Equal, Dist: d})
			}
		}
	}
	return out
}

func makeTask(t *testing.T, seed int64, stride int) ([]string, []string) {
	t.Helper()
	L := makeReference()
	rng := rand.New(rand.NewSource(seed))
	var R []string
	for i := 0; i < len(L); i += stride {
		R = append(R, perturb(rng, L[i]))
	}
	return L, R
}

// TestMatchBatchBitIdenticalToApply is the serving equivalence contract:
// a compiled handle's batch output must be bit-identical to
// Program.Apply on the same inputs, at every parallelism level.
func TestMatchBatchBitIdenticalToApply(t *testing.T) {
	L, R := makeTask(t, 31, 3)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog := res.ToProgram()
	joins, err := prog.Apply(L, R)
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) == 0 {
		t.Fatal("program applied to no joins")
	}
	for _, par := range []int{1, 4, 8} {
		m, err := prog.Compile(L, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		matches, err := m.MatchBatch(context.Background(), R)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != len(R) {
			t.Fatalf("parallelism %d: %d matches for %d records", par, len(matches), len(R))
		}
		got := matchesToJoins(matches)
		if len(got) != len(joins) {
			t.Fatalf("parallelism %d: %d joins vs Apply's %d", par, len(got), len(joins))
		}
		for i := range joins {
			if got[i] != joins[i] {
				t.Fatalf("parallelism %d: join %d differs: %+v vs %+v", par, i, got[i], joins[i])
			}
		}
	}
}

// TestRoundTripReproducesLearnedJoins: Learn -> ToProgram -> Encode ->
// DecodeProgram -> Compile -> MatchBatch must reproduce the original
// Result.Joins assignment exactly on a statistics-free space.
func TestRoundTripReproducesLearnedJoins(t *testing.T) {
	L, R := makeTask(t, 37, 3)
	opt := Options{Space: ewSpace(), ThresholdSteps: 20}
	res, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program) == 0 || len(res.Joins) == 0 {
		t.Fatal("nothing learned")
	}
	data, err := res.ToProgram().Encode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.Compile(L, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matches, err := m.MatchBatch(context.Background(), R)
	if err != nil {
		t.Fatal(err)
	}
	got := matchesToJoins(matches)
	if len(got) != len(res.Joins) {
		t.Fatalf("round trip produced %d joins, learned %d", len(got), len(res.Joins))
	}
	for i, j := range res.Joins {
		if got[i] != j {
			t.Fatalf("join %d differs: compiled %+v vs learned %+v", i, got[i], j)
		}
	}
}

// TestRoundTripReproducesLearnedJoinsMultiColumn is the multi-column form
// of the exact round-trip guarantee.
func TestRoundTripReproducesLearnedJoinsMultiColumn(t *testing.T) {
	leftCols, rightCols, _ := makeMovieTables(false)
	opt := Options{Space: ewSpace(), ThresholdSteps: 15, WeightSteps: 5}
	res, err := JoinMultiColumnTables(leftCols, rightCols, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) == 0 || len(res.Joins) == 0 {
		t.Fatal("nothing learned")
	}
	data, err := res.ToProgram().Encode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := prog.CompileMultiColumn(leftCols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, len(rightCols[0]))
	for i := range rows {
		row := make([]string, len(rightCols))
		for j := range rightCols {
			row[j] = rightCols[j][i]
		}
		rows[i] = row
	}
	matches, err := m.MatchRows(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}
	got := matchesToJoins(matches)
	if len(got) != len(res.Joins) {
		t.Fatalf("round trip produced %d joins, learned %d", len(got), len(res.Joins))
	}
	for i, j := range res.Joins {
		if got[i] != j {
			t.Fatalf("join %d differs: compiled %+v vs learned %+v", i, got[i], j)
		}
	}
	// Single-record row queries agree with the batch.
	for i, row := range rows {
		mt, ok, err := m.MatchRow(context.Background(), row)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (matches[i].Left >= 0) || mt != matches[i] {
			t.Fatalf("row %d: MatchRow %+v/%v vs batch %+v", i, mt, ok, matches[i])
		}
	}
}

// TestMatchAgreesWithBatch: single-record queries are the same function
// as the batch path.
func TestMatchAgreesWithBatch(t *testing.T) {
	L, R := makeTask(t, 41, 4)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.MatchBatch(context.Background(), R)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range R {
		mt, ok, err := m.Match(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (batch[i].Left >= 0) || mt != batch[i] {
			t.Fatalf("record %d: Match %+v/%v vs batch %+v", i, mt, ok, batch[i])
		}
	}
	if _, ok, err := m.Match(context.Background(), "zzz completely unrelated record 9000"); err != nil || ok {
		t.Fatalf("unrelated record matched: ok=%v err=%v", ok, err)
	}
}

// TestMatcherConcurrentUse hammers one Matcher from many goroutines; run
// under -race this is the concurrency-safety contract.
func TestMatcherConcurrentUse(t *testing.T) {
	L, R := makeTask(t, 43, 2)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MatchBatch(context.Background(), R)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				got, err := m.MatchBatch(context.Background(), R)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d: batch diverged at %d", g, i)
						return
					}
				}
				return
			}
			for i, rec := range R {
				mt, _, err := m.Match(context.Background(), rec)
				if err != nil {
					errs <- err
					return
				}
				if mt != want[i] {
					t.Errorf("goroutine %d: record %d diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMatchStream: streaming yields the batch results in input order,
// supports early break, and honors cancellation.
func TestMatchStream(t *testing.T) {
	L, R := makeTask(t, 47, 2)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MatchBatch(context.Background(), R)
	if err != nil {
		t.Fatal(err)
	}
	seq := func(yield func(string) bool) {
		for _, r := range R {
			if !yield(r) {
				return
			}
		}
	}
	i := 0
	for sm, err := range m.MatchStream(context.Background(), iter.Seq[string](seq)) {
		if err != nil {
			t.Fatal(err)
		}
		if sm.Index != i || sm.Record != R[i] || sm.Match != want[i] || sm.OK != (want[i].Left >= 0) {
			t.Fatalf("stream element %d mismatch: %+v", i, sm)
		}
		i++
	}
	if i != len(R) {
		t.Fatalf("stream yielded %d of %d", i, len(R))
	}
	// Early break must not deadlock or leak the producer.
	n := 0
	for _, err := range m.MatchStream(context.Background(), iter.Seq[string](seq)) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 3 {
			break
		}
	}
	// A canceled context surfaces as a yielded error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range m.MatchStream(ctx, iter.Seq[string](seq)) {
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("canceled stream yielded no error")
	}
}

// TestMatchContextCancellation: every query entry point observes ctx.
func TestMatchContextCancellation(t *testing.T) {
	L, R := makeTask(t, 53, 4)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.Match(ctx, R[0]); err == nil {
		t.Error("Match ignored canceled context")
	}
	if _, err := m.MatchBatch(ctx, R); err == nil {
		t.Error("MatchBatch ignored canceled context")
	}
	if _, err := m.MatchRows(ctx, [][]string{{R[0]}}); err == nil {
		t.Error("MatchRows ignored canceled context")
	}
}

// TestMatcherMisuse covers arity and mode errors.
func TestMatcherMisuse(t *testing.T) {
	L, R := makeTask(t, 59, 4)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	prog := res.ToProgram()
	if _, err := prog.CompileMultiColumn([][]string{L}, Options{}); err == nil {
		t.Error("single-column program accepted by CompileMultiColumn")
	}
	m, err := prog.Compile(L, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.MatchRow(context.Background(), []string{"a", "b"}); err == nil {
		t.Error("single-column matcher accepted a 2-cell row")
	}
	if _, _, err := m.MatchRow(context.Background(), []string{R[0]}); err != nil {
		t.Errorf("single-cell row rejected: %v", err)
	}

	leftCols, rightCols, _ := makeMovieTables(false)
	mres, err := JoinMultiColumnTables(leftCols, rightCols, multiOptions())
	if err != nil {
		t.Fatal(err)
	}
	mprog := mres.ToProgram()
	if _, err := mprog.Compile(L, Options{}); err == nil {
		t.Error("multi-column program accepted by Compile")
	}
	if _, err := mprog.Apply(L, R); err == nil {
		t.Error("multi-column program accepted by Apply")
	}
	mm, err := mprog.CompileMultiColumn(leftCols, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mm.Match(context.Background(), "x"); err == nil {
		t.Error("multi-column matcher accepted a string query")
	}
	if _, _, err := mm.MatchRow(context.Background(), nil); err == nil {
		t.Error("multi-column matcher accepted an empty row")
	}
	if _, _, err := mm.MatchRow(context.Background(), []string{"a", "b", "c"}); err == nil {
		t.Error("multi-column matcher accepted a row wider than the reference table")
	}
	if _, err := mm.MatchBatch(context.Background(), R); err == nil {
		t.Error("multi-column matcher accepted a string batch")
	}
}

// TestMatcherEmptyProgram: an empty program compiles into a matcher that
// never matches (and MatchBatch still returns an aligned slice).
func TestMatcherEmptyProgram(t *testing.T) {
	p := &Program{Version: 1}
	m, err := p.Compile([]string{"a", "b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matches, err := m.MatchBatch(context.Background(), []string{"a", "zzz"})
	if err != nil {
		t.Fatal(err)
	}
	for i, mt := range matches {
		if mt.Left != -1 || mt.Config != -1 {
			t.Errorf("empty program matched record %d: %+v", i, mt)
		}
	}
}

// TestMatcherNoColumnsProgram: a multi-column search that selects no
// columns learns an empty program (no columns, weights or
// configurations). Compiled over a two-column reference table it keeps
// the table's row width, answers rows with no match and no error, and
// still asks for rows when given a string.
func TestMatcherNoColumnsProgram(t *testing.T) {
	p := &Program{Version: 1, BlockingBeta: 1}
	m, err := p.CompileMultiColumn([][]string{{"alpha", "beta"}, {"one", "two"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.MultiColumn() || m.RowWidth() != 2 {
		t.Fatalf("multi=%v width=%d, want a 2-cell row handle", m.MultiColumn(), m.RowWidth())
	}
	ctx := context.Background()
	if mt, ok, err := m.MatchRow(ctx, []string{"alpha", "one"}); err != nil || ok || mt != noMatch() {
		t.Errorf("MatchRow = %+v, %v, %v; want no match and no error", mt, ok, err)
	}
	got, err := m.MatchRows(ctx, [][]string{{"alpha", "one"}, {"zzz", ""}})
	if err != nil || len(got) != 2 {
		t.Fatalf("MatchRows = %v, %v", got, err)
	}
	for i, mt := range got {
		if mt != noMatch() {
			t.Errorf("MatchRows[%d] = %+v, want no match", i, mt)
		}
	}
	if _, _, err := m.Match(ctx, "alpha"); !errors.Is(err, errNeedRow) {
		t.Errorf("Match error = %v, want %v", err, errNeedRow)
	}
}

// TestMatchStreamBreakMidChunk: a consumer breaking in the middle of a
// delivered chunk, with more chunks still queued behind it, must return
// promptly without deadlocking the producer.
func TestMatchStreamBreakMidChunk(t *testing.T) {
	L, R := makeTask(t, 61, 2)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// More than two chunks of input so the producer is mid-stream when the
	// consumer walks away.
	var many []string
	for len(many) < 3*streamChunk+7 {
		many = append(many, R[len(many)%len(R)])
	}
	seq := func(yield func(string) bool) {
		for _, r := range many {
			if !yield(r) {
				return
			}
		}
	}
	n := 0
	for _, err := range m.MatchStream(context.Background(), iter.Seq[string](seq)) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == streamChunk/2 {
			break // mid-chunk, with ~3 chunks still unconsumed
		}
	}
	if n != streamChunk/2 {
		t.Fatalf("consumed %d results before break", n)
	}
}

// TestMatchStreamCancelAfterFinalResult: a context cancelled only after
// the last result has been delivered did not cut the stream short, so the
// iterator must finish cleanly instead of yielding a spurious error.
func TestMatchStreamCancelAfterFinalResult(t *testing.T) {
	L, R := makeTask(t, 67, 3)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq := func(yield func(string) bool) {
		for _, r := range R {
			if !yield(r) {
				return
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for sm, err := range m.MatchStream(ctx, iter.Seq[string](seq)) {
		if err != nil {
			t.Fatalf("spurious error after result %d: %v", n, err)
		}
		n++
		if sm.Index == len(R)-1 {
			cancel() // after the final result, before the iterator returns
		}
	}
	if n != len(R) {
		t.Fatalf("stream yielded %d of %d", n, len(R))
	}
}

// TestMatchBatchCancelNoPartialResults: a batch cut short by cancellation
// must surface the error with a nil result — never a slice whose
// unprocessed tail is zero-valued Match{} entries, which would read as
// confident joins to reference record 0.
func TestMatchBatchCancelNoPartialResults(t *testing.T) {
	L, R := makeTask(t, 71, 2)
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.ToProgram().Compile(L, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var big []string
	for len(big) < 2000 {
		big = append(big, R[len(big)%len(R)])
	}
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < round*200; i++ {
				runtime.Gosched()
			}
			cancel()
		}()
		got, err := m.MatchBatch(ctx, big)
		<-done
		if err != nil {
			if got != nil {
				t.Fatalf("round %d: error %v returned alongside %d results", round, err, len(got))
			}
			continue
		}
		// Completed despite the racing cancel: every entry must be fully
		// formed — either the canonical no-match or a real join.
		for i, mt := range got {
			valid := (mt.Left == -1 && mt.Config == -1) || (mt.Left >= 0 && mt.Config >= 0 && mt.Precision > 0)
			if !valid {
				t.Fatalf("round %d: entry %d is partially zero-valued: %+v", round, i, mt)
			}
		}
	}
}
