package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

// TestAddConfigConflictUpdatesIteration forces a conflicting reassignment
// across two iterations: a later, more confident configuration steals row
// r, and the reported iteration must move with the new assignment (it
// previously stayed at the stale first iteration).
func TestAddConfigConflictUpdatesIteration(t *testing.T) {
	f := config.JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: config.JD}
	in := &engineInput{space: []config.JoinFunction{f, f}, steps: 1, nL: 2, nR: 1}
	out := &engineOut{
		assignedL:    []int32{-1},
		assignedP:    make([]float64, 1),
		assignedD:    make([]float64, 1),
		assignedCfg:  []int32{-1},
		assignedIter: make([]int32, 1),
	}
	// Iteration 1: joins r0 to left record 0 with estimate 1/4.
	first := &preparedFn{
		thresholds: []float64{0.5},
		bestL:      []int32{0},
		bestD:      []float64{0.4},
		kMin:       []int32{0},
		cnt:        [][]uint8{{4}},
		joinable:   []int32{0},
	}
	if fresh := addConfig(in, first, 0, 0, 1, out, nil); !reflect.DeepEqual(fresh, []int32{0}) {
		t.Fatalf("setup: fresh rows %v, want [0]", fresh)
	}
	if out.assignedL[0] != 0 || out.assignedIter[0] != 1 {
		t.Fatalf("setup: assigned L=%d iter=%d", out.assignedL[0], out.assignedIter[0])
	}
	// Iteration 2: a conflicting function prefers left record 1 with the
	// higher estimate 1/2, so it must take the row over.
	second := &preparedFn{
		thresholds: []float64{0.3},
		bestL:      []int32{1},
		bestD:      []float64{0.2},
		kMin:       []int32{0},
		cnt:        [][]uint8{{2}},
		joinable:   []int32{0},
	}
	// A taken-over row was assigned before: it is not fresh.
	if fresh := addConfig(in, second, 1, 0, 2, out, nil); len(fresh) != 0 {
		t.Fatalf("conflict reported fresh rows %v", fresh)
	}
	if out.assignedL[0] != 1 || out.assignedCfg[0] != 1 {
		t.Fatalf("conflict not taken: L=%d cfg=%d", out.assignedL[0], out.assignedCfg[0])
	}
	if out.assignedIter[0] != 2 {
		t.Errorf("assignedIter = %d after conflicting reassignment, want 2", out.assignedIter[0])
	}
}

// TestPrepareParallelEquivalence: the intra-function sharding (single
// function, many workers) must reproduce the sequential pre-computation
// bit for bit — bestL/bestD, the threshold grid, ball counts, totals, and
// the joinable ordering.
func TestPrepareParallelEquivalence(t *testing.T) {
	in, _, _ := figure4Input(t)
	seq := prepare(in, 1)
	for _, p := range []int{2, 4, 8} {
		par := prepare(in, p)
		if len(par) != len(seq) {
			t.Fatalf("p=%d: %d fns vs %d", p, len(par), len(seq))
		}
		for fi := range seq {
			if !reflect.DeepEqual(seq[fi], par[fi]) {
				t.Fatalf("p=%d: preparedFn[%d] differs:\nseq %+v\npar %+v", p, fi, seq[fi], par[fi])
			}
		}
	}
}

// parallelEquivTables builds small tables with enough near-duplicates to
// produce multi-configuration programs.
func parallelEquivTables() (left, right []string) {
	kinds := []string{"museum", "institute", "library", "archive", "gallery"}
	places := []string{"north", "south", "east", "west", "central"}
	for _, k := range kinds {
		for _, p := range places {
			left = append(left, fmt.Sprintf("%s %s of history", p, k))
		}
	}
	for i, k := range kinds {
		for j, p := range places {
			switch (i + j) % 3 {
			case 0:
				right = append(right, fmt.Sprintf("%s %s of histroy", p, k))
			case 1:
				right = append(right, fmt.Sprintf("the %s %s of history", p, k))
			default:
				right = append(right, fmt.Sprintf("%s %s", p, k))
			}
		}
	}
	return left, right
}

// TestJoinTablesParallelEquivalence runs the whole pipeline at several
// parallelism levels and requires identical programs and joins.
func TestJoinTablesParallelEquivalence(t *testing.T) {
	left, right := parallelEquivTables()
	opt := Options{Space: config.ReducedSpace(), ThresholdSteps: 12, PrecisionTarget: 0.5}
	opt.Parallelism = 1
	seq, err := JoinTables(left, right, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		opt.Parallelism = p
		par, err := JoinTables(left, right, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Program, par.Program) {
			t.Fatalf("p=%d: programs differ:\nseq %v\npar %v", p, seq.Program, par.Program)
		}
		if !reflect.DeepEqual(seq.Joins, par.Joins) {
			t.Fatalf("p=%d: joins differ:\nseq %v\npar %v", p, seq.Joins, par.Joins)
		}
		if seq.EstPrecision != par.EstPrecision || seq.EstRecall != par.EstRecall {
			t.Fatalf("p=%d: estimates differ: %v/%v vs %v/%v",
				p, seq.EstPrecision, seq.EstRecall, par.EstPrecision, par.EstRecall)
		}
	}
}

// TestSelfJoinParallelEquivalence covers the self-join blocking and
// engine path under parallelism.
func TestSelfJoinParallelEquivalence(t *testing.T) {
	records, extra := parallelEquivTables()
	records = append(records, extra...)
	opt := Options{Space: config.ReducedSpace(), ThresholdSteps: 10, PrecisionTarget: 0.5}
	opt.Parallelism = 1
	seq, err := SelfJoin(records, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 8
	par, err := SelfJoin(records, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Joins, par.Joins) {
		t.Fatalf("self-join joins differ:\nseq %v\npar %v", seq.Joins, par.Joins)
	}
}

// TestMultiColumnParallelEquivalence covers the tensor build and weighted
// engine path under parallelism.
func TestMultiColumnParallelEquivalence(t *testing.T) {
	leftKey, rightKey := parallelEquivTables()
	leftAux := make([]string, len(leftKey))
	rightAux := make([]string, len(rightKey))
	for i := range leftAux {
		leftAux[i] = fmt.Sprintf("row %d", i%7)
	}
	for i := range rightAux {
		rightAux[i] = fmt.Sprintf("row %d", i%7)
	}
	opt := Options{Space: config.ReducedSpace(), ThresholdSteps: 8, PrecisionTarget: 0.5, WeightSteps: 4}
	opt.Parallelism = 1
	seq, err := JoinMultiColumnTables([][]string{leftKey, leftAux}, [][]string{rightKey, rightAux}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 8
	par, err := JoinMultiColumnTables([][]string{leftKey, leftAux}, [][]string{rightKey, rightAux}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Joins, par.Joins) {
		t.Fatalf("multi-column joins differ:\nseq %v\npar %v", seq.Joins, par.Joins)
	}
	if !reflect.DeepEqual(seq.Weights, par.Weights) || !reflect.DeepEqual(seq.Columns, par.Columns) {
		t.Fatalf("column selection differs: %v/%v vs %v/%v",
			seq.Columns, seq.Weights, par.Columns, par.Weights)
	}
}

// TestBesideOverlapsOnlyPastOneWorker: beside runs build concurrently
// with work when more than one worker is allowed (work here can only end
// once build has run), and at parallelism 1 runs work, then build, on
// the caller's goroutine.
func TestBesideOverlapsOnlyPastOneWorker(t *testing.T) {
	var order []string
	beside(1, func() { order = append(order, "build") }, func() { order = append(order, "work") })
	if !reflect.DeepEqual(order, []string{"work", "build"}) {
		t.Fatalf("parallelism 1 ran %v, want work then build", order)
	}
	built := make(chan struct{})
	beside(2, func() { close(built) }, func() {
		select {
		case <-built:
		case <-time.After(10 * time.Second):
			t.Error("parallelism 2: work ended without build running beside it")
		}
	})
}
