package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, typechecked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Loader typechecks module packages from source, with no dependency on
// export data or golang.org/x/tools: module-internal imports are loaded
// recursively from their directories, and standard-library imports go
// through the source importer rooted at GOROOT. It exists so autofjvet
// and the analysistest fixtures work in a module with zero third-party
// dependencies.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory, reading the
// module path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Import implements types.Importer over the module/stdlib chain.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, rel), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and typechecks the non-test Go files of dir as package
// pkgPath, memoized per pkgPath.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l, Sizes: AnalyzerSizes}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", pkgPath, err)
	}
	pkg := &Package{PkgPath: pkgPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// LoadModule loads every package of the module (skipping testdata, dot
// and underscore directories), sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := l.ModulePath
		if rel != "." {
			pkgPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goFilesIn lists the non-test Go files of dir that build on the current
// platform, sorted. Build-constraint filtering (both //go:build lines and
// _GOOS/_GOARCH filename suffixes) matches what `go build` would compile,
// so platform-specific pairs like mmap_linux.go / mmap_other.go don't
// typecheck as duplicate declarations.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, fmt.Errorf("analysis: matching %s: %w", filepath.Join(dir, name), err)
			}
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// RunAnalyzers applies every analyzer to every package and returns the
// diagnostics sorted by position then analyzer name, so the output is
// stable across runs. Interprocedural summaries are computed over the
// whole package set first; a callee outside pkgs has no summary, so the
// analyzers that need one stay silent on calls to it.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	summaries := ComputeSummaries(fset, pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				TypesSizes: AnalyzerSizes,
				Summaries:  summaries,
				Report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
