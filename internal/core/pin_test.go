package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

var updatePins = flag.Bool("update", false, "rewrite the learned-program pin in testdata")

// learnedPinFile holds one line per Table-2 task: id, digest of what
// learning decided, actual precision and recall, configuration count.
var learnedPinFile = filepath.Join("testdata", "learned_programs.golden")

// TestLearnedProgramsPinned learns the 50 single-column Table-2 tasks
// (benchgen seed 1, scale 1, default options) and compares each task's
// digest of resultLines (program, thresholds, estimates, trace and every
// join, floats as bits) with the committed pin. A change that moves what
// learning decides fails it and prints the pinned and the new line of
// each task that moved; rerun with -update to rewrite the pin when the
// move is meant:
//
//	go test -count=1 -run TestLearnedProgramsPinned ./internal/core -update
func TestLearnedProgramsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("50 learns under the race detector take minutes; the pin is checked without it")
	}
	opt := benchgen.Options{Seed: 1, Scale: 1}
	var got []string
	for id := range benchgen.NumSingleColumnTasks() {
		task := benchgen.SingleColumnTask(id, opt)
		res, err := JoinTables(task.LeftKey(), task.RightKey(), Options{})
		if err != nil {
			t.Fatalf("task %d: %v", id, err)
		}
		sum := sha256.Sum256([]byte(strings.Join(resultLines(res), "\n")))
		ev := metrics.Evaluate(res.Mapping(), task.Truth)
		got = append(got, fmt.Sprintf("%d %s P %.4f R %.4f configurations %d",
			id, hex.EncodeToString(sum[:8]), ev.Precision, ev.RecallFraction, len(res.Program)))
	}
	if *updatePins {
		if err := os.WriteFile(learnedPinFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(learnedPinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d tasks, learning ran %d", learnedPinFile, len(want), len(got))
	}
	var moved []string
	for id := range got {
		if got[id] != want[id] {
			moved = append(moved, fmt.Sprintf("task %s\n  pinned %s\n  now    %s", benchgen.SingleColumnTaskName(id), want[id], got[id]))
		}
	}
	if moved != nil {
		t.Fatalf("learning decides differently on %d of %d tasks:\n%s\n(rerun with -update if the change is meant)",
			len(moved), len(got), strings.Join(moved, "\n"))
	}
}
