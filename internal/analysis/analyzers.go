package analysis

// All returns every autofjvet analyzer, in the order diagnostics should
// be grouped when positions tie. The set is the repo's invariant
// contract: determinism (detrange and its interprocedural extension
// dettaint), steady-state allocation discipline (hotpath locally,
// hotcall across call edges), pool hygiene (poolsafe), cancellation
// flow (ctxflow), goroutine lifecycle (leakygo), lock discipline
// (lockhold), memory layout (fieldalign), and the annotation grammar
// that keeps all the escapes honest (directives). hotcall, dettaint,
// lockhold and leakygo consume the interprocedural summary engine
// (summary.go) over the call graph (callgraph.go). By-value copies of
// typed atomics are stock `go vet`'s copylocks check, not one of these.
func All() []*Analyzer {
	return []*Analyzer{
		Directives,
		DetRange,
		DetTaint,
		HotPath,
		HotCall,
		PoolSafe,
		CtxFlow,
		LockHold,
		LeakyGo,
		FieldAlign,
	}
}
