package analysis_test

import (
	"path/filepath"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestDetRange(t *testing.T) {
	analysistest.Run(t, fixture("detrange"), "example.com/internal/core/detrange", analysis.DetRange)
}

// The same violating fixture under an out-of-scope import path must be
// silent: detrange only polices result-producing packages.
func TestDetRangeOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, fixture("detrange"), "example.com/internal/benchgen/detrange", analysis.DetRange)
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, fixture("hotpath"), "example.com/hotpath", analysis.HotPath)
}

func TestPoolSafe(t *testing.T) {
	analysistest.Run(t, fixture("poolsafe"), "example.com/poolsafe", analysis.PoolSafe)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, fixture("ctxflow"), "example.com/ctxflow", analysis.CtxFlow)
}

func TestFieldAlign(t *testing.T) {
	analysistest.Run(t, fixture("fieldalign"), "example.com/internal/core/fieldalign", analysis.FieldAlign)
}

func TestFieldAlignOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, fixture("fieldalign"), "example.com/internal/textproc/fieldalign", analysis.FieldAlign)
}

func TestDirectives(t *testing.T) {
	analysistest.Run(t, fixture("directives"), "example.com/directives", analysis.Directives)
}

func TestHotCall(t *testing.T) {
	analysistest.Run(t, fixture("hotcall"), "example.com/hotcall", analysis.HotCall)
}

func TestDetTaint(t *testing.T) {
	analysistest.Run(t, fixture("dettaint"), "example.com/internal/core/dettaint", analysis.DetTaint)
}

// The same tainted fixture under an out-of-scope import path must be
// silent: dettaint only polices result-producing packages.
func TestDetTaintOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, fixture("dettaint"), "example.com/internal/benchgen/dettaint", analysis.DetTaint)
}

func TestLockHold(t *testing.T) {
	analysistest.Run(t, fixture("lockhold"), "example.com/lockhold", analysis.LockHold)
}

func TestLeakyGo(t *testing.T) {
	analysistest.Run(t, fixture("leakygo"), "example.com/leakygo", analysis.LeakyGo)
}
