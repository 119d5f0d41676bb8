package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis"
)

// The multipkg fixture is its own module: a hotpath function, a locked
// region, and a goroutine launch in package app whose violations are
// only visible through the summaries of the leaf packages alloc and
// block.
var multipkgWant = []struct{ analyzer, fileFragment, messageFragment string }{
	{"hotcall", "app/app.go", "call to alloc.Build allocates transitively in hotpath function Hot"},
	{"lockhold", "app/app.go", "call to block.Wait, which blocks"},
	{"leakygo", "app/app.go", "goroutine running block.Wait has no reachable cancellation"},
}

func checkMultipkgDiags(t *testing.T, fsetPos func(d analysis.Diagnostic) string, diags []analysis.Diagnostic) {
	t.Helper()
	var appDiags []analysis.Diagnostic
	for _, d := range diags {
		if strings.Contains(fsetPos(d), "app/app.go") {
			appDiags = append(appDiags, d)
		}
	}
	if len(appDiags) != len(multipkgWant) {
		for _, d := range appDiags {
			t.Logf("got: %s: %s [%s]", fsetPos(d), d.Message, d.Analyzer)
		}
		t.Fatalf("got %d diagnostics in app/app.go, want %d", len(appDiags), len(multipkgWant))
	}
	for i, w := range multipkgWant {
		d := appDiags[i]
		if d.Analyzer != w.analyzer {
			t.Errorf("diagnostic %d: analyzer %q, want %q", i, d.Analyzer, w.analyzer)
		}
		if !strings.Contains(d.Message, w.messageFragment) {
			t.Errorf("diagnostic %d (%s): message %q does not contain %q", i, d.Analyzer, d.Message, w.messageFragment)
		}
	}
}

// TestCrossPackagePropagation runs the whole fixture module at once, the
// standalone path: one call graph over all three packages.
func TestCrossPackagePropagation(t *testing.T) {
	root := filepath.Join("testdata", "src", "multipkg")
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(loader.Fset, pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	checkMultipkgDiags(t, func(d analysis.Diagnostic) string {
		return filepath.ToSlash(loader.Fset.Position(d.Pos).Filename)
	}, diags)
}

// TestCrossPackagePropagationViaFacts is the negative control: callee
// facts reach package app only through the summaries of the packages
// in the run. Loaded alone, app's callees in alloc and block have no
// summary, and hotcall, lockhold and leakygo must stay silent on all
// three sites: unknown callees are never guessed at.
func TestCrossPackagePropagationViaFacts(t *testing.T) {
	root := filepath.Join("testdata", "src", "multipkg")
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	app, err := loader.LoadDir(filepath.Join(root, "app"), "example.com/multipkg/app")
	if err != nil {
		t.Fatal(err)
	}
	blind, err := analysis.RunAnalyzers(loader.Fset, []*analysis.Package{app}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range blind {
		if d.Analyzer == "hotcall" || d.Analyzer == "lockhold" || d.Analyzer == "leakygo" {
			t.Errorf("without callee facts, %s should be silent, got: %s", d.Analyzer, d.Message)
		}
	}
}
