package analysis

import (
	"go/ast"
)

// CtxFlow enforces context propagation through the serving path:
//
//  1. A function that already receives a context.Context must not mint a
//     fresh one with context.Background()/TODO() — the caller's deadline
//     and cancellation silently stop applying to whatever runs below.
//  2. Library code (non-main, non-test packages) must not call
//     context.Background()/TODO() at all; contexts enter at the edges
//     (main, HTTP handlers, tests) and flow down.
//  3. An exported function with a context parameter must actually use
//     it; a dropped ctx means cancellation is accepted at the API and
//     then ignored.
//
// Deliberate detachment — work that must outlive any single caller,
// such as a shared background worker — is annotated
// //autofj:ctx-ok <reason> on the minting call.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "check that context flows down the call tree instead of being dropped or re-minted",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := ctxParamName(pass, fd)
			checkCtxMinting(pass, fd, ctxParam != "", isMain)
			if ctxParam != "" && ctxParam != "_" && fd.Name.IsExported() {
				if !identUsed(fd.Body, ctxParam) {
					pass.Reportf(fd.Name.Pos(), "exported %s takes ctx but never uses it; thread it into the calls below or name the parameter _", fd.Name.Name)
				}
			}
		}
	}
	return nil
}

// ctxParamName returns the name of fd's context.Context parameter ("" if
// none).
func ctxParamName(pass *Pass, fd *ast.FuncDecl) string {
	for _, f := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[f.Type]
		if !ok || !isPkgType(tv.Type, "context", "Context") {
			continue
		}
		if len(f.Names) == 0 {
			return "_"
		}
		return f.Names[0].Name
	}
	return ""
}

// checkCtxMinting flags context.Background()/TODO() calls inside fd.
// Having a ctx parameter upgrades the message (rule 1); library code is
// flagged either way (rule 2). main packages without a ctx param are
// edges and exempt. //autofj:ctx-ok escapes a call.
func checkCtxMinting(pass *Pass, fd *ast.FuncDecl, hasCtxParam, isMain bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name, ok := pkgFuncCall(pass.TypesInfo, call)
		if !ok || pkg != "context" || (name != "Background" && name != "TODO") {
			return true
		}
		if _, ok := pass.directiveAt(call.Pos(), "ctx-ok"); ok {
			return true
		}
		switch {
		case hasCtxParam:
			pass.Reportf(call.Pos(), "%s receives a ctx but mints context.%s(); the caller's deadline and cancellation stop here — pass the parameter down", fd.Name.Name, name)
		case !isMain:
			pass.Reportf(call.Pos(), "library function %s mints context.%s(); accept a ctx parameter or annotate //autofj:ctx-ok <reason>", fd.Name.Name, name)
		}
		return true
	})
}

// identUsed reports whether name is referenced anywhere in body.
func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
			return false
		}
		return !used
	})
	return used
}
