package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// summary.go is the interprocedural layer: a per-function fact store
// computed to fixpoint over the call graph (callgraph.go). Each function
// gets a Summary — may-allocate, mints-context, map-iteration-order-
// escapes, blocks-on-channel/IO, spawns-goroutine, acquires-lock, and
// the goroutine-lifecycle facts leakygo needs — first from a local scan
// of its own body, then by propagating callee facts across static call
// edges until nothing changes. The lattice is monotone (facts only go
// false→true), so the fixpoint terminates and, because nodes and call
// sites are visited in deterministic source order, the blame chains in
// diagnostics are identical across runs.
//
// autofjvet computes the whole module in one pass and never touches
// disk. Standard-library callees have no source — a curated fact table
// (stdlibFacts) covers the ones that matter, and unknown externals are
// treated as fact-free so the analyzers stay silent rather than guess.

// A Summary records the interprocedural facts of one function.
type Summary struct {
	// HotPath mirrors the //autofj:hotpath doc annotation, so hotcall
	// leaves a hotpath callee to the hotpath analyzer.
	HotPath bool

	// MayAlloc reports an allocation-inducing construct reachable from
	// the function (same predicate as the hotpath analyzer, with
	// //autofj:alloc-ok sites excluded — a blessed cold path does not
	// taint callers). AllocWhat/AllocAt describe the leaf cause and
	// AllocPath the call chain to it (empty when the cause is local).
	MayAlloc  bool
	AllocWhat string
	AllocAt   string
	AllocPath []string

	// MintsContext reports a context.Background()/TODO() call reachable
	// from the function (ctx-ok sites excluded).
	MintsContext bool

	// OrderEscapes reports that the function's return value depends on
	// map iteration order with no sort barrier in between: it ranges a
	// map (or calls maps.Keys/Values) into something it returns, or
	// forwards a tainted callee result, without sorting.
	OrderEscapes bool
	OrderWhat    string
	OrderAt      string

	// Blocks reports that the function can park its goroutine: channel
	// operations, selects without default, time.Sleep, WaitGroup.Wait,
	// IO through readers/writers/conns, or a callee that does.
	Blocks    bool
	BlockWhat string
	BlockAt   string
	BlockPath []string

	// SpawnsGoroutine reports a reachable `go` statement.
	SpawnsGoroutine bool

	// AcquiresLock reports a reachable sync.Mutex/RWMutex Lock/RLock.
	AcquiresLock bool

	// LeakRisk reports constructs that can keep a goroutine running or
	// parked forever when this function is a goroutine body: unbounded
	// loops, channel sends/receives, blocking selects. Cancelable
	// reports a reachable shutdown signal: a context parameter or use,
	// a WaitGroup.Done, or a receive from a done-style channel
	// (chan struct{} / chan time.Time).
	LeakRisk   bool
	RiskWhat   string
	Cancelable bool
}

// A SummarySet maps canonical function names (types.Func.FullName of
// the generic origin) to their summaries.
type SummarySet struct {
	m map[string]*Summary
}

// summaryKey canonicalizes a function object: generic instances share
// their origin's summary.
func summaryKey(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// Lookup returns the summary for fn: module facts first, then the
// curated stdlib table. nil means "unknown external" — analyzers must
// stay silent rather than guess.
func (s *SummarySet) Lookup(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	key := summaryKey(fn)
	if sum, ok := s.m[key]; ok {
		return sum
	}
	if sum, ok := stdlibFacts[key]; ok {
		return sum
	}
	return nil
}

// ComputeSummaries builds the call graph over pkgs and computes every
// function's summary to fixpoint.
func ComputeSummaries(fset *token.FileSet, pkgs []*Package) *SummarySet {
	set := &SummarySet{m: map[string]*Summary{}}
	graph := BuildCallGraph(pkgs)

	// A lightweight Pass per package gives the local scan access to the
	// annotation index and the shared helpers.
	passes := map[*Package]*Pass{}
	for _, pkg := range pkgs {
		passes[pkg] = &Pass{
			Fset:       fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			TypesSizes: AnalyzerSizes,
		}
	}

	// Phase 1: local facts from each body.
	for _, node := range graph.Nodes {
		set.m[summaryKey(node.Obj)] = localFacts(passes[node.Pkg], node)
	}

	// Phase 2: propagate callee facts across call edges to fixpoint.
	// Only monotone updates, so the loop terminates; deterministic node
	// and site order keeps blame chains stable.
	for changed := true; changed; {
		changed = false
		for _, node := range graph.Nodes {
			sum := set.m[summaryKey(node.Obj)]
			pass := passes[node.Pkg]
			for _, site := range node.Calls {
				if site.Callee == node.Obj {
					continue // direct recursion adds no new facts
				}
				cs := set.Lookup(site.Callee)
				if cs == nil {
					continue
				}
				if propagate(pass, fset, sum, cs, site) {
					changed = true
				}
			}
		}
	}
	return set
}

// propagate folds one callee summary into the caller across one call
// site, returning whether anything changed.
func propagate(pass *Pass, fset *token.FileSet, sum, cs *Summary, site CallSite) bool {
	changed := false
	name := shortFuncName(summaryKey(site.Callee))
	at := fset.Position(site.Call.Pos()).String()

	if !site.InGo {
		if cs.MayAlloc && !sum.MayAlloc {
			if _, ok := pass.directiveAt(site.Call.Pos(), "alloc-ok"); !ok {
				sum.MayAlloc = true
				sum.AllocWhat = cs.AllocWhat
				sum.AllocAt = cs.AllocAt
				sum.AllocPath = appendChain(name, cs.AllocPath)
				changed = true
			}
		}
		if cs.Blocks && !sum.Blocks {
			sum.Blocks = true
			sum.BlockWhat = cs.BlockWhat
			sum.BlockAt = cs.BlockAt
			sum.BlockPath = appendChain(name, cs.BlockPath)
			changed = true
		}
		if cs.MintsContext && !sum.MintsContext {
			sum.MintsContext = true
			changed = true
		}
		if cs.AcquiresLock && !sum.AcquiresLock {
			sum.AcquiresLock = true
			changed = true
		}
		if cs.LeakRisk && !sum.LeakRisk {
			sum.LeakRisk = true
			sum.RiskWhat = name + ": " + cs.RiskWhat
			changed = true
		}
		if cs.Cancelable && !sum.Cancelable {
			sum.Cancelable = true
			changed = true
		}
		if cs.OrderEscapes && !sum.OrderEscapes && site.FlowsToReturn && !site.SortedAfter {
			if _, ok := pass.directiveAt(site.Call.Pos(), "nondet-ok"); !ok {
				sum.OrderEscapes = true
				sum.OrderWhat = "forwards map-iteration-ordered result of " + name
				sum.OrderAt = orDefault(cs.OrderAt, at)
				changed = true
			}
		}
	}
	if cs.SpawnsGoroutine && !sum.SpawnsGoroutine {
		sum.SpawnsGoroutine = true
		changed = true
	}
	return changed
}

func appendChain(name string, rest []string) []string {
	out := make([]string, 0, len(rest)+1)
	out = append(out, name)
	// Cap the rendered chain: past a handful of hops the leaf cause and
	// position carry the information.
	const maxChain = 6
	for _, r := range rest {
		if len(out) >= maxChain {
			break
		}
		out = append(out, r)
	}
	return out
}

func orDefault(s, def string) string {
	if s != "" {
		return s
	}
	return def
}

// localFacts scans one function body for the facts visible without
// looking at callees. Function-literal bodies are skipped throughout —
// a closure's effects belong to whoever runs it (the `go` statement
// itself is still seen, so SpawnsGoroutine is recorded).
func localFacts(pass *Pass, node *FuncNode) *Summary {
	fd := node.Decl
	sum := &Summary{HotPath: node.HotPath}
	if docHasDirective(fd.Doc, "blocking") {
		// Manual fact: the body blocks in a way the scan cannot see
		// (cgo, syscalls, dynamic dispatch).
		sum.Blocks = true
		sum.BlockWhat = "declared //autofj:blocking"
		sum.BlockAt = pass.Fset.Position(fd.Pos()).String()
	}

	if sites := allocSites(pass, fd); len(sites) > 0 {
		sum.MayAlloc = true
		sum.AllocWhat = sites[0].What
		sum.AllocAt = pass.Fset.Position(sites[0].Pos).String()
	}

	// A context parameter means cancellation is reachable by signature.
	for _, field := range paramFields(fd) {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isPkgType(tv.Type, "context", "Context") {
			sum.Cancelable = true
		}
	}

	setBlock := func(pos token.Pos, what string) {
		if !sum.Blocks {
			sum.Blocks = true
			sum.BlockWhat = what
			sum.BlockAt = pass.Fset.Position(pos).String()
		}
	}
	setRisk := func(what string) {
		if !sum.LeakRisk {
			sum.LeakRisk = true
			sum.RiskWhat = what
		}
	}

	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			sum.SpawnsGoroutine = true
		case *ast.SendStmt:
			if !inSelectWithDefault(stack) {
				setBlock(n.Pos(), "channel send")
				setRisk("sends on a channel")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recvT := pass.TypesInfo.TypeOf(n.X)
				if isDoneChannel(recvT) {
					sum.Cancelable = true
				}
				if !inSelectWithDefault(stack) {
					setBlock(n.Pos(), "channel receive")
					setRisk("receives from a channel")
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				setBlock(n.Pos(), "select with no default")
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				setRisk("loops without a termination condition")
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				break
			}
			switch types.Unalias(tv.Type).Underlying().(type) {
			case *types.Chan:
				setBlock(n.Pos(), "range over channel")
				setRisk("ranges over a channel")
			case *types.Map:
				if _, ok := pass.directiveAt(n.Pos(), "nondet-ok"); !ok {
					checkOrderEscape(pass, fd, n, sum)
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar && isPkgType(obj.Type(), "context", "Context") {
					sum.Cancelable = true
				}
			}
		case *ast.CallExpr:
			if pkg, fn, ok := pkgFuncCall(pass.TypesInfo, n); ok && pkg == "context" && (fn == "Background" || fn == "TODO") {
				if _, ok := pass.directiveAt(n.Pos(), "ctx-ok"); !ok {
					sum.MintsContext = true
				}
			}
			if callee := StaticCallee(pass.TypesInfo, n); callee != nil {
				switch summaryKey(callee) {
				case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
					sum.AcquiresLock = true
				case "(*sync.WaitGroup).Done":
					sum.Cancelable = true
				}
				if fn := summaryKey(callee); fn == "maps.Keys" || fn == "maps.Values" {
					if _, ok := pass.directiveAt(n.Pos(), "nondet-ok"); !ok {
						checkCallOrderEscape(pass, fd, n, stack, sum, fn)
					}
				}
			}
		}
		return true
	})
	return sum
}

// paramFields returns fd's parameter field list (empty when none).
func paramFields(fd *ast.FuncDecl) []*ast.Field {
	if fd.Type.Params == nil {
		return nil
	}
	return fd.Type.Params.List
}

// checkOrderEscape marks sum.OrderEscapes if the map range's products
// reach a return of fd with no sort barrier after the range.
func checkOrderEscape(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, sum *Summary) {
	if sum.OrderEscapes {
		return
	}
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return
	}
	if callsSortAfter(pass, fd, rng) {
		return
	}
	returned := returnedBases(fd)
	escaped := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			escaped = true
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if b := exprBase(lhs); b != "" && returned[rootIdent(b)] {
					escaped = true
					return false
				}
			}
		}
		return true
	})
	if escaped {
		sum.OrderEscapes = true
		sum.OrderWhat = "ranges a map into a returned value"
		sum.OrderAt = pass.Fset.Position(rng.Pos()).String()
	}
}

// checkCallOrderEscape marks sum.OrderEscapes for maps.Keys/maps.Values
// results that reach a return without a sort barrier.
func checkCallOrderEscape(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node, sum *Summary, fn string) {
	if sum.OrderEscapes {
		return
	}
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return
	}
	returned := returnedBases(fd)
	if !flowsToReturn(call, stack, returned) {
		return
	}
	for _, p := range sortCallPositions(pass.TypesInfo, fd) {
		if p >= call.End() {
			return
		}
	}
	sum.OrderEscapes = true
	sum.OrderWhat = fn + " iteration order reaches a returned value"
	sum.OrderAt = pass.Fset.Position(call.Pos()).String()
}

// rootIdent strips selector suffixes from an exprBase rendering:
// "out.rows" -> "out".
func rootIdent(base string) string {
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}

// inSelectWithDefault reports whether the innermost enclosing select of
// the node (via its comm clause) has a default case — its channel
// operations poll instead of parking.
func inSelectWithDefault(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.CommClause); !ok {
			continue
		}
		if i > 0 {
			if sel, ok := stack[i-1].(*ast.SelectStmt); ok {
				return selectHasDefault(sel)
			}
		}
		return false
	}
	return false
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isDoneChannel reports whether t is a done-style signal channel:
// chan struct{} (close-to-cancel) or chan time.Time (timers/tickers).
func isDoneChannel(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := types.Unalias(t).Underlying().(*types.Chan)
	if !ok {
		return false
	}
	elem := types.Unalias(ch.Elem())
	if st, ok := elem.Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return true
	}
	return isPkgType(elem, "time", "Time")
}

// shortFuncName trims the module path prefix from a FullName rendering:
// "github.com/x/y/internal/core.prepare" -> "core.prepare",
// "(*github.com/x/y/internal/core.Table).Add" -> "(*core.Table).Add".
func shortFuncName(full string) string {
	out := full
	if i := strings.LastIndexByte(out, '/'); i >= 0 {
		// The slash can sit inside "(*path/pkg.T).M"; trim up to it in
		// place, keeping any leading "(" / "(*".
		prefix := ""
		rest := out
		if strings.HasPrefix(out, "(*") {
			prefix, rest = "(*", out[2:]
		} else if strings.HasPrefix(out, "(") {
			prefix, rest = "(", out[1:]
		}
		if j := strings.LastIndexByte(rest, '/'); j >= 0 {
			rest = rest[j+1:]
		}
		out = prefix + rest
	}
	return out
}

// stdlibFacts carries curated summaries for standard-library functions
// whose behavior matters to the analyzers and whose source the tool
// never loads. Keys are types.Func.FullName strings; interface methods
// ("(io.Writer).Write") only match call sites whose static receiver is
// the interface — a concrete *bytes.Buffer receiver resolves to its own
// method name and stays fact-free, which is exactly the distinction a
// blocking-IO check wants. The allocation entries deliberately exclude
// the packages the hotpath analyzer already flags syntactically (fmt,
// log, errors, strings) so one site is never reported twice.
var stdlibFacts = map[string]*Summary{
	// Blocking: sleeps and synchronization.
	"time.Sleep":             {Blocks: true, BlockWhat: "time.Sleep"},
	"(*sync.WaitGroup).Wait": {Blocks: true, BlockWhat: "sync.WaitGroup.Wait"},
	"(*sync.Cond).Wait":      {Blocks: true, BlockWhat: "sync.Cond.Wait"},

	// Blocking: network and process IO.
	"(net.Conn).Read":         {Blocks: true, BlockWhat: "net.Conn.Read"},
	"(net.Conn).Write":        {Blocks: true, BlockWhat: "net.Conn.Write"},
	"(net.Listener).Accept":   {Blocks: true, BlockWhat: "net.Listener.Accept"},
	"net.Dial":                {Blocks: true, BlockWhat: "net.Dial"},
	"(*net/http.Client).Do":   {Blocks: true, BlockWhat: "http.Client.Do"},
	"(*net/http.Client).Get":  {Blocks: true, BlockWhat: "http.Client.Get"},
	"(*net/http.Client).Post": {Blocks: true, BlockWhat: "http.Client.Post"},
	"net/http.Get":            {Blocks: true, BlockWhat: "http.Get"},
	"net/http.Post":           {Blocks: true, BlockWhat: "http.Post"},
	"(*os/exec.Cmd).Run":      {Blocks: true, BlockWhat: "exec.Cmd.Run"},
	"(*os/exec.Cmd).Wait":     {Blocks: true, BlockWhat: "exec.Cmd.Wait"},
	"(*os/exec.Cmd).Output":   {Blocks: true, BlockWhat: "exec.Cmd.Output"},

	// Blocking: file and stream IO through interfaces or files. A
	// concrete in-memory buffer resolves to its own methods and is not
	// matched.
	"(io.Reader).Read":                {Blocks: true, BlockWhat: "io.Reader.Read"},
	"(io.Writer).Write":               {Blocks: true, BlockWhat: "io.Writer.Write"},
	"(io.Closer).Close":               {Blocks: true, BlockWhat: "io.Closer.Close"},
	"io.Copy":                         {Blocks: true, BlockWhat: "io.Copy"},
	"io.ReadAll":                      {Blocks: true, BlockWhat: "io.ReadAll"},
	"(net/http.ResponseWriter).Write": {Blocks: true, BlockWhat: "http.ResponseWriter.Write"},
	"(*os.File).Read":                 {Blocks: true, BlockWhat: "os.File.Read"},
	"(*os.File).Write":                {Blocks: true, BlockWhat: "os.File.Write"},
	"(*os.File).Sync":                 {Blocks: true, BlockWhat: "os.File.Sync"},
	"os.ReadFile":                     {Blocks: true, BlockWhat: "os.ReadFile"},
	"os.WriteFile":                    {Blocks: true, BlockWhat: "os.WriteFile"},
	"(*bufio.Reader).ReadString":      {Blocks: true, BlockWhat: "bufio.Reader.ReadString"},
	"(*bufio.Reader).ReadBytes":       {Blocks: true, BlockWhat: "bufio.Reader.ReadBytes"},
	"(*bufio.Reader).Read":            {Blocks: true, BlockWhat: "bufio.Reader.Read"},
	"(*bufio.Scanner).Scan":           {Blocks: true, BlockWhat: "bufio.Scanner.Scan"},
	"(*bufio.Writer).Flush":           {Blocks: true, BlockWhat: "bufio.Writer.Flush"},
	"(*encoding/json.Encoder).Encode": {Blocks: true, BlockWhat: "json.Encoder.Encode"},
	"(*encoding/json.Decoder).Decode": {Blocks: true, BlockWhat: "json.Decoder.Decode"},
	"(*encoding/csv.Writer).Write":    {Blocks: true, BlockWhat: "csv.Writer.Write"},
	"(*encoding/csv.Writer).Flush":    {Blocks: true, BlockWhat: "csv.Writer.Flush"},
	"(*encoding/csv.Reader).Read":     {Blocks: true, BlockWhat: "csv.Reader.Read"},
	"(*encoding/csv.Reader).ReadAll":  {Blocks: true, BlockWhat: "csv.Reader.ReadAll"},

	// Allocation: formatters and splitters outside the syntactic scan.
	"strconv.Itoa":              {MayAlloc: true, AllocWhat: "strconv.Itoa allocates its result string"},
	"strconv.FormatInt":         {MayAlloc: true, AllocWhat: "strconv.FormatInt allocates its result string"},
	"strconv.FormatUint":        {MayAlloc: true, AllocWhat: "strconv.FormatUint allocates its result string"},
	"strconv.FormatFloat":       {MayAlloc: true, AllocWhat: "strconv.FormatFloat allocates its result string"},
	"strconv.Quote":             {MayAlloc: true, AllocWhat: "strconv.Quote allocates its result string"},
	"bytes.Split":               {MayAlloc: true, AllocWhat: "bytes.Split allocates a fresh slice of slices"},
	"bytes.Fields":              {MayAlloc: true, AllocWhat: "bytes.Fields allocates a fresh slice of slices"},
	"bytes.Join":                {MayAlloc: true, AllocWhat: "bytes.Join allocates its result"},
	"bytes.Repeat":              {MayAlloc: true, AllocWhat: "bytes.Repeat allocates its result"},
	"bytes.ToLower":             {MayAlloc: true, AllocWhat: "bytes.ToLower allocates its result"},
	"bytes.ToUpper":             {MayAlloc: true, AllocWhat: "bytes.ToUpper allocates its result"},
	"bytes.Clone":               {MayAlloc: true, AllocWhat: "bytes.Clone allocates its result"},
	"regexp.MustCompile":        {MayAlloc: true, AllocWhat: "regexp.MustCompile compiles per call (hoist to a package-level var)"},
	"regexp.Compile":            {MayAlloc: true, AllocWhat: "regexp.Compile compiles per call (hoist to a package-level var)"},
	"slices.Collect":            {MayAlloc: true, AllocWhat: "slices.Collect allocates the collected slice"},
	"slices.Sorted":             {MayAlloc: true, AllocWhat: "slices.Sorted allocates the collected slice"},
	"slices.Clone":              {MayAlloc: true, AllocWhat: "slices.Clone allocates its result"},
	"(*strings.Builder).String": {MayAlloc: true, AllocWhat: "strings.Builder.String allocates the built string"},

	// Determinism: iterator forms of map iteration.
	"maps.Keys":   {OrderEscapes: true, OrderWhat: "maps.Keys yields map iteration order"},
	"maps.Values": {OrderEscapes: true, OrderWhat: "maps.Values yields map iteration order"},
}
