package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis"
)

// TestUnreachedFunctions keeps code that production no longer runs out of
// the production packages. It walks the module's call graph from the
// program's roots: every main package (cmd/*, examples/*, bench), the
// root package's exported API, including the exported methods of the
// types it aliases, and every init function. A function is reached when a
// reached function, or a package-level declaration, names it: a call, a
// method value or a function passed as a value. A method is reached when
// its name is that of a method of an interface the module calls or
// converts to, since a dynamic call may land on it.
//
// What is left must be exactly the list below, each entry with a test
// that uses it as a reference or a fixture. A newly unreached function
// is moved to a test-only package or deleted; a listed function that
// production reaches again leaves the list.
func TestUnreachedFunctions(t *testing.T) {
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	g := analysis.BuildCallGraph(pkgs)
	mod := loader.ModulePath + "/"
	name := func(f *types.Func) string { return strings.ReplaceAll(f.FullName(), mod, "") }

	reach := reached(g, pkgs, loader.ModulePath)
	var got []string
	for _, n := range g.Nodes {
		if !reach[n.Obj] {
			got = append(got, name(n.Obj))
		}
	}
	want := make([]string, 0, len(unreached))
	for fn := range unreached {
		want = append(want, fn)
	}
	slices.Sort(want)
	for _, fn := range got {
		if _, ok := unreached[fn]; !ok {
			t.Errorf("%s: no production root reaches it; delete it or list it with the test that uses it", fn)
		}
	}
	for _, fn := range want {
		if !slices.Contains(got, fn) {
			t.Errorf("%s: production reaches it again; take it off the list", fn)
		}
	}

	tests := testFuncs(t, "../..")
	for _, fn := range want {
		if test := unreached[fn]; !tests[test] {
			t.Errorf("%s: listed as used by %s, which is no test of the module", fn, test)
		}
	}
}

// reached returns the module functions the program's roots reach (see
// TestUnreachedFunctions); root is the root package's path.
func reached(g *analysis.CallGraph, pkgs []*analysis.Package, root string) map[*types.Func]bool {
	refs := map[*types.Func][]*types.Func{} // by function: the functions its body names
	var roots []*types.Func
	ifaces := map[string]bool{} // method names of the interfaces the module uses
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				ifaces[it.Method(i).Name()] = true
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := range tup.Len() {
						typ := tup.At(i).Type()
						if s, ok := typ.(*types.Slice); ok {
							typ = s.Elem()
						}
						addIface(typ)
					}
				}
			}
		}
		for _, obj := range pkg.Info.Defs {
			if f, ok := obj.(*types.Func); ok {
				res := f.Type().(*types.Signature).Results()
				for i := range res.Len() {
					addIface(res.At(i).Type())
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					roots = append(roots, funcRefs(pkg.Info, d)...)
				case *ast.FuncDecl:
					obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					refs[obj] = funcRefs(pkg.Info, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						roots = append(roots, obj)
					}
				}
			}
		}
		if pkg.PkgPath == root {
			roots = append(roots, exportedAPI(pkg.Types)...)
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok && isIfaceMethod(f) {
				ifaces[f.Name()] = true
			}
		}
	}

	seen := map[*types.Func]bool{}
	var visit func(f *types.Func)
	visit = func(f *types.Func) {
		f = f.Origin()
		if seen[f] {
			return
		}
		seen[f] = true
		for _, c := range refs[f] {
			visit(c)
		}
	}
	for _, f := range roots {
		visit(f)
	}
	for _, n := range g.Nodes {
		if sig := n.Obj.Type().(*types.Signature); sig.Recv() != nil && ifaces[n.Obj.Name()] {
			visit(n.Obj)
		}
	}
	return seen
}

// funcRefs lists the functions node names, closures' bodies included.
func funcRefs(info *types.Info, node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, f)
			}
		}
		return true
	})
	return out
}

// exportedAPI lists the root package's exported functions and the
// exported methods of its exported types, aliases included.
func exportedAPI(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, nm := range scope.Names() {
		switch obj := scope.Lookup(nm).(type) {
		case *types.Func:
			if obj.Exported() {
				out = append(out, obj)
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(obj.Type())))
			for i := range ms.Len() {
				if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Exported() {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

func isIfaceMethod(f *types.Func) bool {
	sig := f.Type().(*types.Signature)
	return sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// testFuncs returns the names of the Test, Fuzz, Benchmark and Example
// functions of the module's _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	re := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	out := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range re.FindAllSubmatch(src, -1) {
			out[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// unreached lists the functions no production root reaches, each with a
// test that uses it.
var unreached = map[string]string{
	"(*internal/blocking.Index).TopK":                 "TestTopKRanksTrueMatchFirst",
	"(*internal/blocking.Index).TopKSelf":             "TestTopKExcludesSelf",
	"(*internal/config.Corpus).Stats":                 "TestCorpusOnlyBuildsWhatIsNeeded",
	"(*internal/config.EvalScratch).CharWork":         "TestRowDistancesCut",
	"(*internal/config.EvalScratch).SetWork":          "TestRowDistancesCut",
	"(*internal/config.Rows).SigBytes":                "TestLedgerBoundBytes",
	"(*internal/config.SumCache).Bytes":               "TestLedgerBoundBytes",
	"(*internal/config.Rows).RunBytes":                "TestLedgerRowBytes",
	"(*internal/config.Rows).TokenCap":                "TestNewTableSlotCapacity",
	"(*internal/config.Vocab).DF":                     "TestSnapshotSaveFile",
	"(*internal/config.Vocab).Docs":                   "TestSnapshotSaveFile",
	"(*internal/core.tableScratch).ballWork":          "TestCappedBallWorkCount",
	"internal/analysis/analysistest.Run":              "TestDetRange",
	"internal/analysis/analysistest.RunNoDiagnostics": "TestDetRangeOutOfScope",
	"internal/analysis/analysistest.collectWants":     "TestDetRange",
	"internal/analysis/analysistest.run":              "TestDetRange",
	"internal/baselines.BestStatic":                   "TestStaticJoinsAndUBR",
	"internal/baselines.FeatureNames":                 "TestFeatureNamesMatchCount",
	"internal/benchgen.MultiColumnTaskName":           "TestMultiColumnTableShapes",
	"internal/benchgen.SingleColumnTaskName":          "TestFiftySingleColumnTasks",
	"internal/dataset.ReadTruthCSV":                   "TestTruthRoundTrip",
}
