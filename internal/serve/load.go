package serve

import (
	"fmt"
	"os"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
)

// This file is the CSV/program plumbing shared by the serving tier and
// the CLIs (cmd/autofj, cmd/autofjd): reading tables, picking the key
// column, and compiling a program against a reference table.

// ReadCSVFile parses a CSV table (with a header row) from a file.
func ReadCSVFile(path string) (dataset.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return dataset.Table{}, err
	}
	defer f.Close()
	t, err := dataset.ReadCSV(f)
	if err != nil {
		return dataset.Table{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// KeyColumn returns the named join key column, or the first column when
// name is empty.
func KeyColumn(t dataset.Table, name string) ([]string, error) {
	if name == "" {
		if len(t.Columns) == 0 {
			return nil, fmt.Errorf("table has no columns")
		}
		return t.Column(0), nil
	}
	col, ok := t.ColumnByName(name)
	if !ok {
		return nil, fmt.Errorf("column %q not found (have %v)", name, t.Columns)
	}
	return col, nil
}

// ConcatRows renders each row as its whitespace-normalized concatenation
// (core.DisplayRow) — the display value of multi-column records.
func ConcatRows(t dataset.Table) []string {
	out := make([]string, t.NumRows())
	for i, row := range t.Rows {
		out[i] = core.DisplayRow(row, true)
	}
	return out
}

// CompileTable builds the mutable serving table for a program against
// the reference table: single-column programs index the join key column
// (column, default first) as one-cell rows, multi-column programs index
// the full rows. column is ignored for multi-column programs.
func CompileTable(prog *core.Program, left dataset.Table, column string, opt core.Options) (*core.Table, error) {
	if len(prog.Columns) > 0 {
		return prog.NewTable(len(left.Columns), left.Rows, opt)
	}
	keys, err := KeyColumn(left, column)
	if err != nil {
		return nil, err
	}
	return prog.Compile(keys, opt)
}
