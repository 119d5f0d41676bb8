// Package analysis implements autofjvet, a family of repo-specific static
// analyzers that mechanically enforce the invariants the engine's tests
// only spot-check: bit-identical output at any parallelism (no map-order
// nondeterminism on result paths), allocation-free steady state in
// annotated hot functions, sync.Pool hygiene (no pooled reference fields
// that pin query memory), and context propagation through the serving
// path.
//
// The types mirror golang.org/x/tools/go/analysis closely — Analyzer,
// Pass, Diagnostic — but are self-contained on the standard library so
// the tool builds in a dependency-free module. cmd/autofjvet drives the
// analyzers over the whole module, loaded from source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis function and its metadata.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description shown by `autofjvet help`.
	Doc string
	// Run applies the analyzer to one package, reporting diagnostics
	// through pass.Report.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single typechecked package and
// a sink for diagnostics, mirroring analysis.Pass.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	TypesSizes types.Sizes
	Report     func(Diagnostic)

	// Summaries holds the interprocedural per-function facts computed
	// over every package in the run. The summary-driven analyzers
	// (hotcall, dettaint, lockhold, leakygo) consume it; it is never
	// nil when RunAnalyzers drives the pass.
	Summaries *SummarySet

	ann *annIndex // lazily built annotation index
}

// A Diagnostic is one reported problem.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Suggestion is the annotation that would accept this site as a
	// deliberate exception (e.g. "//autofj:alloc-ok <reason>"), carried
	// separately so -json consumers can offer it mechanically.
	Suggestion string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several
// analyzers skip test files: tests mint context.Background and iterate
// maps freely without affecting the determinism of shipped results.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pathContains reports whether the package's import path contains any of
// the given fragments (used to scope analyzers to the result-producing
// packages).
func (p *Pass) pathContains(fragments ...string) bool {
	path := p.Pkg.Path()
	for _, f := range fragments {
		if strings.Contains(path, f) {
			return true
		}
	}
	return false
}

// inspectStack walks root, calling fn with each node and the stack of its
// ancestors (outermost first, not including n itself). Returning false
// skips the node's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFunc returns the innermost enclosing function declaration or
// literal body from a stack produced by inspectStack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// namedOrAlias unwraps aliases and returns the *types.Named form of t, or
// nil.
func namedType(t types.Type) *types.Named {
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isPkgType reports whether t is the named type pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// pkgFuncCall reports whether call invokes a package-level function of
// pkg (import path) and returns its name: e.g. ("sort", "Strings").
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
