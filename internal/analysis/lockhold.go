package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockHold flags a mutex held across a call that can park the goroutine
// on a channel or IO — the deadlock shape of a serving path: a registry
// or table lock held while a send blocks on a full channel (or an HTTP
// response write stalls on a slow client) stops every other request on
// that lock, and the goroutine that would drain the channel may itself be
// waiting for the lock.
//
// The held region is tracked syntactically per function: a Lock/RLock
// call on a sync.Mutex/RWMutex opens the region for that receiver
// expression, the matching Unlock/RUnlock closes it, and a deferred
// unlock holds to the end of the function. Inside a held region, the
// analyzer reports channel sends/receives, selects without default, and
// calls whose interprocedural summary (summary.go) says they block —
// with the blame chain to the leaf cause. Branch-local lock state stays
// branch-local (an early-return unlock inside an if does not end the
// outer region), which errs toward reporting; a deliberate
// block-under-lock is annotated //autofj:blocking <reason> on the call.
//
// Function-literal bodies are skipped: a closure handed to `go` runs
// outside the critical section, and a deferred closure runs at return.
// Calls that *acquire* the same lock again are the recursive-lock bug,
// not this analyzer's; unknown callees (dynamic calls, externals
// without curated facts) are not reported.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "flag mutexes held across blocking channel/IO operations",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) error {
	if pass.Summaries == nil {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLockRegion(pass, fd, fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

// lockMethods classifies the sync mutex methods by their effect on the
// held set.
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// lockOp classifies a statement-level call as a lock or unlock on a
// receiver expression, returning the receiver's base rendering.
func lockOp(pass *Pass, call *ast.CallExpr) (base string, lock, unlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	callee := StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return "", false, false
	}
	key := summaryKey(callee)
	switch {
	case lockMethods[key]:
		return exprBase(sel.X), true, false
	case unlockMethods[key]:
		return exprBase(sel.X), false, true
	}
	return "", false, false
}

// walkLockRegion processes stmts in order, threading the held set
// through sequential statements and giving nested control-flow bodies a
// copy (branch-local acquisitions and releases do not leak out —
// conservative toward keeping the lock held on the fall-through path).
func walkLockRegion(pass *Pass, fd *ast.FuncDecl, stmts []ast.Stmt, held map[string]token.Pos) {
	clone := func() map[string]token.Pos {
		c := make(map[string]token.Pos, len(held))
		for k, v := range held {
			c[k] = v
		}
		return c
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if base, lock, unlock := lockOp(pass, call); base != "" {
					if lock {
						held[base] = call.Pos()
					} else if unlock {
						delete(held, base)
					}
					continue
				}
			}
			checkHeldStmt(pass, fd, st, held)
		case *ast.DeferStmt:
			if base, _, unlock := lockOp(pass, s.Call); unlock && base != "" {
				// Deferred unlock: held until return; keep the region
				// open for the rest of the function.
				continue
			}
			// Other deferred calls run at return, possibly after an
			// explicit unlock; not judged here.
		case *ast.IfStmt:
			checkHeldExpr(pass, fd, s.Cond, held)
			walkLockRegion(pass, fd, s.Body.List, clone())
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				walkLockRegion(pass, fd, e.List, clone())
			case *ast.IfStmt:
				walkLockRegion(pass, fd, []ast.Stmt{e}, clone())
			}
		case *ast.ForStmt:
			checkHeldExpr(pass, fd, s.Cond, held)
			walkLockRegion(pass, fd, s.Body.List, clone())
		case *ast.RangeStmt:
			if len(held) > 0 {
				if tv, ok := pass.TypesInfo.Types[s.X]; ok {
					if _, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan); isChan {
						reportHeld(pass, fd, s.Pos(), "range over a channel", held)
					}
				}
			}
			walkLockRegion(pass, fd, s.Body.List, clone())
		case *ast.BlockStmt:
			walkLockRegion(pass, fd, s.List, held)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockRegion(pass, fd, cc.Body, clone())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockRegion(pass, fd, cc.Body, clone())
				}
			}
		case *ast.SelectStmt:
			if len(held) > 0 && !selectHasDefault(s) {
				reportHeld(pass, fd, s.Pos(), "select with no default", held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLockRegion(pass, fd, cc.Body, clone())
				}
			}
		case *ast.LabeledStmt:
			walkLockRegion(pass, fd, []ast.Stmt{s.Stmt}, held)
		default:
			checkHeldStmt(pass, fd, st, held)
		}
	}
}

// checkHeldStmt inspects one non-control statement for blocking
// operations while a lock is held.
func checkHeldStmt(pass *Pass, fd *ast.FuncDecl, st ast.Stmt, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(st, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			reportHeld(pass, fd, n.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportHeld(pass, fd, n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			checkHeldCall(pass, fd, n, held)
		}
		return true
	})
}

func checkHeldExpr(pass *Pass, fd *ast.FuncDecl, expr ast.Expr, held map[string]token.Pos) {
	if expr == nil || len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportHeld(pass, fd, n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			checkHeldCall(pass, fd, n, held)
		}
		return true
	})
}

func checkHeldCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, held map[string]token.Pos) {
	callee := StaticCallee(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	key := summaryKey(callee)
	if lockMethods[key] || unlockMethods[key] {
		return
	}
	// fmt.Fprint* block only when the destination is an abstract
	// writer; a concrete in-memory builder/buffer never parks.
	if pkg, name, ok := pkgFuncCall(pass.TypesInfo, call); ok && pkg == "fmt" &&
		(name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
		if len(call.Args) > 0 && writerMayBlock(pass, call.Args[0]) {
			reportHeld(pass, fd, call.Pos(), "fmt."+name+" to an abstract io.Writer", held)
		}
		return
	}
	sum := pass.Summaries.Lookup(callee)
	if sum == nil || !sum.Blocks {
		return
	}
	name := shortFuncName(key)
	via := sum.BlockWhat
	if len(sum.BlockPath) > 0 {
		via = fmt.Sprintf("via %s: %s", joinChain(sum.BlockPath), sum.BlockWhat)
	}
	reportHeld(pass, fd, call.Pos(), fmt.Sprintf("call to %s, which blocks (%s, %s)", name, via, orDefault(sum.BlockAt, "declared fact")), held)
}

// writerMayBlock reports whether the expression's static type is an
// abstract writer (interface) rather than a concrete in-memory buffer.
func writerMayBlock(pass *Pass, arg ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return true
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		if isPkgType(ptr.Elem(), "strings", "Builder") || isPkgType(ptr.Elem(), "bytes", "Buffer") {
			return false
		}
	}
	// Concrete non-buffer writers (os.File, net conns) still block.
	return !isPkgType(t, "strings", "Builder") && !isPkgType(t, "bytes", "Buffer")
}

func joinChain(chain []string) string {
	out := ""
	for i, c := range chain {
		if i > 0 {
			out += " -> "
		}
		out += c
	}
	return out
}

func reportHeld(pass *Pass, fd *ast.FuncDecl, pos token.Pos, what string, held map[string]token.Pos) {
	if _, ok := pass.directiveAt(pos, "blocking"); ok {
		return
	}
	// Blame the earliest-acquired lock for a stable message.
	var lockBase string
	var lockPos token.Pos
	for base, p := range held {
		if lockBase == "" || p < lockPos || (p == lockPos && base < lockBase) {
			lockBase, lockPos = base, p
		}
	}
	pass.Report(Diagnostic{
		Pos:      pos,
		Analyzer: pass.Analyzer.Name,
		Message: fmt.Sprintf("%s while %s is locked (acquired at %s) in %s; a parked goroutine here wedges every caller of the lock — move the blocking work outside the critical section or annotate //autofj:blocking <reason>",
			what, lockBase, pass.Fset.Position(lockPos), fd.Name.Name),
		Suggestion: "//autofj:blocking <reason>",
	})
}
