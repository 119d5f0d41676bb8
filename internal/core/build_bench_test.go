package core

import (
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
)

// BenchmarkNewTableLedgerShape measures one table build in the shape the
// benchmark ledger serves: the program learned on benchgen task 0 at
// scale 1, compiled over the same task's reference table at scale 10
// (|L| = 6,270), with default options. It is the in-process A/B of the
// ledger's core.compile_ms, without the ledger's process noise.
func BenchmarkNewTableLedgerShape(b *testing.B) {
	train := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 1})
	ref := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 10})
	res, err := JoinTables(train.LeftKey(), train.RightKey(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	prog := res.ToProgram()
	rows := oneCellRows(ref.LeftKey())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.NewTable(1, rows, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
