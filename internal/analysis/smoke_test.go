package analysis_test

import (
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis"
)

// TestModuleRunsClean is the tree gate: every autofjvet analyzer —
// all ten, including the interprocedural four (dettaint, hotcall,
// lockhold, leakygo) — over every package of the module must produce
// zero diagnostics. A change that violates an invariant — an unsorted
// map range on a result path, an allocation in a hotpath function, an
// unreset pooled field, a lock held across a blocking call — fails
// this test with the same message autofjvet prints, and a deliberate
// exception must be annotated (with a reason) to pass.
func TestModuleRunsClean(t *testing.T) {
	if n := len(analysis.All()); n != 10 {
		t.Fatalf("analysis.All() returns %d analyzers, want 10; update this test when adding analyzers", n)
	}
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded (%d); loader scope is likely wrong", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(loader.Fset, pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
