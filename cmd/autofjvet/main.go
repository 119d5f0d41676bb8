// Command autofjvet is the repo's custom vet tool: a family of
// analyzers that mechanically enforce the invariants the engine's
// guarantees rest on — deterministic output (detrange locally, dettaint
// across call edges), an allocation-free steady state (hotpath locally,
// hotcall across call edges), sync.Pool hygiene (poolsafe), context
// propagation (ctxflow), lock discipline (lockhold), goroutine lifecycle
// (leakygo), and hot-struct memory layout (fieldalign). Copies of typed
// atomics are left to stock `go vet` (copylocks). The interprocedural
// analyzers consume per-function summaries computed to fixpoint over the
// module call graph; see internal/analysis for the engine and the
// //autofj: annotation grammar.
//
// Usage:
//
//	autofjvet [-json] [dir]
//
// It typechecks every package of the module containing dir (default
// ".") from source, computes summaries module-wide, and runs all
// analyzers. It exits 1 if any diagnostic fires. No build cache or
// export data is needed. -json emits the diagnostics as a
// machine-readable JSON array on stdout (file, line, column, analyzer,
// message, and the annotation that would accept the site) for CI
// artifacts and editor tooling.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis"
)

func main() {
	var rest []string
	jsonOut := false
	for _, a := range os.Args[1:] {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-h", "-help", "--help":
			fmt.Fprintln(os.Stderr, "usage: autofjvet [-json] [dir]")
			os.Exit(2)
		default:
			rest = append(rest, a)
		}
	}
	os.Exit(run(rest, jsonOut))
}

// run loads the whole module from source and runs every analyzer,
// printing file:line:col diagnostics (or, with -json, a machine-readable
// array on stdout).
func run(args []string, jsonOut bool) int {
	dir := "."
	if len(args) == 1 {
		dir = args[0]
	} else if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: autofjvet [-json] [dir]")
		return 2
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autofjvet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autofjvet:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "autofjvet:", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(loader.Fset, pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "autofjvet:", err)
		return 2
	}
	if jsonOut {
		if err := printJSON(os.Stdout, loader.Fset, diags); err != nil {
			fmt.Fprintln(os.Stderr, "autofjvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
