package core

import (
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
