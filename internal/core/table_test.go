package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// tableTestProgram exercises every representation family the segmented
// table must keep bit-identical under mutation: character distances
// (statistics-free), IDF-weighted set distances (mutable corpus
// statistics), embedding distance, and negative rules.
func tableTestProgram() *Program {
	return &Program{
		Version: 1,
		Configurations: []ConfigurationSpec{
			{Preprocess: "L", Distance: "ED", Threshold: 0.25},
			{Preprocess: "L", Tokenization: "SP", TokenWeights: "IDFW", Distance: "JD", Threshold: 0.35},
			{Preprocess: "L+S+RP", Tokenization: "SP", TokenWeights: "IDFW", Distance: "CD", Threshold: 0.3},
			{Preprocess: "L", Distance: "GED", Threshold: 0.3},
		},
		NegativeRules: [][2]string{{"basebal", "footbal"}, {"basketbal", "footbal"}},
		BlockingBeta:  1,
	}
}

// columnsOf transposes dense-ordered rows into the column form the
// pointer oracle takes.
func columnsOf(rows [][]string, width int) [][]string {
	cols := make([][]string, width)
	for j := range cols {
		cols[j] = make([]string, len(rows))
		for i, r := range rows {
			cols[j][i] = r[j]
		}
	}
	return cols
}

func toRows(records []string) [][]string {
	rows := make([][]string, len(records))
	for i, r := range records {
		rows[i] = []string{r}
	}
	return rows
}

// TestTableGenerationBumps: every mutation path — add, remove, minor
// compaction, major compaction — bumps the generation before it returns,
// so a (generation, query) cache key can never serve a stale table.
func TestTableGenerationBumps(t *testing.T) {
	L, _ := makeTask(t, 37, 3)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L[:60]), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := tab.Generation()
	if gen == 0 {
		t.Fatal("fresh table has generation 0; 0 must stay free as a cache sentinel")
	}

	g, err := tab.Add(toRows(L[60:64]))
	if err != nil {
		t.Fatal(err)
	}
	if g <= gen || tab.Generation() != g {
		t.Fatalf("Add: generation %d after %d", g, gen)
	}
	gen = g

	if g, err = tab.Remove([]int{2}); err != nil {
		t.Fatal(err)
	}
	if g <= gen {
		t.Fatalf("Remove did not bump generation: %d after %d", g, gen)
	}
	gen = g

	did, err := tab.Compact(context.Background())
	if err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	if tab.Generation() <= gen {
		t.Fatalf("minor compaction did not bump generation: %d after %d", tab.Generation(), gen)
	}
	gen = tab.Generation()

	// An empty-delta, garbage-free Compact is a no-op and must NOT bump.
	did, err = tab.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if did || tab.Generation() != gen {
		t.Fatalf("no-op compact changed state: did=%v gen %d vs %d", did, tab.Generation(), gen)
	}

	// Drive a major rebuild by tombstoning most of the table.
	var dead []int
	for i := 0; i < tab.Len()-5; i++ {
		dead = append(dead, i)
	}
	if gen, err = tab.Remove(dead); err != nil {
		t.Fatal(err)
	}
	did, err = tab.Compact(context.Background())
	if err != nil || !did {
		t.Fatalf("major compact: did=%v err=%v", did, err)
	}
	if tab.Generation() <= gen {
		t.Fatal("major compaction did not bump generation")
	}
	if tab.SegmentCount() != 1 || tab.Len() != 5 {
		t.Fatalf("major compaction left %d segments, %d rows", tab.SegmentCount(), tab.Len())
	}
}

// TestTableAddRemoveSemantics: dense indices stay consistent with Rows()
// ordering across removes and compactions.
func TestTableAddRemoveSemantics(t *testing.T) {
	prog := tableTestProgram()
	recs := []string{"alpha one", "beta two", "gamma three", "delta four", "epsilon five"}
	tab, err := prog.NewTable(1, toRows(recs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Remove([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha one", "gamma three", "epsilon five"}
	rows := tab.Rows()
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i][0] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i][0], want[i])
		}
	}
	if _, err := tab.Add(toRows([]string{"zeta six"})); err != nil {
		t.Fatal(err)
	}
	if r, err := tab.Row(3); err != nil || r[0] != "zeta six" {
		t.Fatalf("Row(3) = %v, %v", r, err)
	}
	if _, err := tab.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows = tab.Rows()
	wantAfter := append(want, "zeta six")
	for i := range wantAfter {
		if rows[i][0] != wantAfter[i] {
			t.Fatalf("after compaction row %d = %q, want %q", i, rows[i][0], wantAfter[i])
		}
	}

	// Error paths.
	if _, err := tab.Remove([]int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := tab.Remove([]int{tab.Len()}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := tab.Remove([]int{0, 0}); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := tab.Add([][]string{{"a", "b"}}); err == nil {
		t.Error("wrong-arity row accepted")
	}
}

// TestTableEmptyAndMisuse: an empty table serves no-matches, grows via
// Add, and rejects malformed construction.
func TestTableEmptyAndMisuse(t *testing.T) {
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt, ok, err := tab.Match(context.Background(), "anything")
	if err != nil || ok || mt.Left != -1 {
		t.Fatalf("empty table matched: %+v %v %v", mt, ok, err)
	}
	if _, err := tab.Add(toRows([]string{"lsu tigers football", "lsu tigers baseball"})); err != nil {
		t.Fatal(err)
	}
	mt, ok, err = tab.Match(context.Background(), "lsu tigers football")
	if err != nil || !ok || mt.Left != 0 {
		t.Fatalf("delta-only table missed: %+v %v %v", mt, ok, err)
	}

	if _, err := prog.NewTable(2, nil, Options{}); err == nil {
		t.Error("single-column program accepted width 2")
	}
	// The empty program of a multi-column search that selected no columns
	// keeps the reference table's arity, through a snapshot too.
	empty, err := (&Program{Version: 1}).NewTable(2, [][]string{{"a", "b"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := empty.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(snap.Bytes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.MultiColumn() || loaded.RowWidth() != 2 || loaded.Len() != 1 {
		t.Errorf("loaded empty program: multi=%v width=%d rows=%d", loaded.MultiColumn(), loaded.RowWidth(), loaded.Len())
	}
	if mt, ok, err := loaded.MatchRow(context.Background(), []string{"a", "b"}); err != nil || ok || mt != noMatch() {
		t.Errorf("empty program matched: %+v %v %v", mt, ok, err)
	}
	if _, err := prog.NewTable(0, nil, Options{}); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := prog.NewTable(1, [][]string{{"a", "b"}}, Options{}); err == nil {
		t.Error("malformed initial row accepted")
	}
	if _, _, err := tab.MatchRow(context.Background(), []string{"a", "b"}); err == nil {
		t.Error("wrong-arity query row accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tab.Match(ctx, "x"); err == nil {
		t.Error("Match ignored canceled context")
	}
	if _, err := tab.MatchBatch(ctx, []string{"x"}); err == nil {
		t.Error("MatchBatch ignored canceled context")
	}
}

// TestTableMatchAgreesWithBatchAndStream: the single, batch, and stream
// entry points are the same function.
func TestTableMatchAgreesWithBatchAndStream(t *testing.T) {
	L, R := makeTask(t, 41, 4)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Mix in delta rows so every path crosses the segment/delta merge.
	if _, err := tab.Add(toRows([]string{"extra row one", "extra row two"})); err != nil {
		t.Fatal(err)
	}
	want, err := tab.MatchBatch(context.Background(), R)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range R {
		mt, ok, err := tab.Match(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (want[i].Left >= 0) || mt != want[i] {
			t.Fatalf("record %d: Match %+v/%v vs batch %+v", i, mt, ok, want[i])
		}
	}
	i := 0
	seq := func(yield func(string) bool) {
		for _, r := range R {
			if !yield(r) {
				return
			}
		}
	}
	for sm, err := range tab.MatchStream(context.Background(), seq) {
		if err != nil {
			t.Fatal(err)
		}
		if sm.Index != i || sm.Match != want[i] {
			t.Fatalf("stream element %d mismatch: %+v", i, sm)
		}
		i++
	}
	if i != len(R) {
		t.Fatalf("stream yielded %d of %d", i, len(R))
	}
}

// pointerFreeType reports whether a type can hold no references other
// than the backing array of pointer-free slices — i.e. retaining a value
// of the type pins only its own bounded capacity, never query data.
func pointerFreeType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array, reflect.Slice:
		return pointerFreeType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFreeType(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		// Strings, pointers, maps, chans, funcs, interfaces: all can pin
		// query-derived memory.
		return false
	}
}

// TestTableScratchRetainsNoQueryMemory: pooled table scratches must be
// structurally incapable of pinning query input or reference rows between
// requests — query-derived references live in generation-keyed cache
// entries and the per-miss queryState, a ball center's strings on the
// stack — so every scratch field is a whitelisted persistent sub-scratch
// or a pointer-free buffer, the prepared sides' weight tables included.
func TestTableScratchRetainsNoQueryMemory(t *testing.T) {
	persistent := map[string]bool{
		"sc":  true, // *blocking.TableScratch: capacity + generation stamps only
		"esc": true, // *config.EvalScratch: reusable DP rows only
	}
	st := reflect.TypeOf(tableScratch{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if persistent[f.Name] {
			continue
		}
		if !pointerFreeType(f.Type) {
			t.Errorf("tableScratch.%s (%s) can hold references; pooled scratch would pin query memory across requests", f.Name, f.Type)
		}
	}

	// The scratch really carries a query's candidates and prepared sides
	// through the path the structural check covers.
	L, _ := makeTask(t, 43, 4)
	prog := tableTestProgram()
	tab, err := prog.NewTable(1, toRows(L), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab.mu.RLock()
	ms := tab.getScratch()
	tab.matchOne(ms, []string{"2008 wisconsin badgers football team alpha beta gamma"})
	tab.matchOne(ms, []string{"lsu tigers"})
	if len(ms.cands) == 0 {
		t.Fatal("query did not populate the scratch; the test is vacuous")
	}
	tab.putScratch(ms)
	tab.mu.RUnlock()
}
