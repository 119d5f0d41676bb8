package serve

import (
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
)

func tableOf(t *testing.T, csv string) dataset.Table {
	t.Helper()
	tab, err := dataset.ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestKeyColumn(t *testing.T) {
	tab := tableOf(t, "id,name\n1,alpha\n2,bravo\n")
	col, err := KeyColumn(tab, "")
	if err != nil || len(col) != 2 || col[0] != "1" {
		t.Errorf("default column: %v, %v", col, err)
	}
	col, err = KeyColumn(tab, "name")
	if err != nil || col[1] != "bravo" {
		t.Errorf("named column: %v, %v", col, err)
	}
	if _, err := KeyColumn(tab, "nope"); err == nil {
		t.Error("missing column accepted")
	}
}

func TestConcatRows(t *testing.T) {
	tab := tableOf(t, "a,b\n\" alpha  one \",beta\ngamma,\n")
	got := ConcatRows(tab)
	want := []string{"alpha one beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("ConcatRows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCompileTableSingleAndMulti(t *testing.T) {
	prog, err := core.DecodeProgram([]byte(testProgramJSON))
	if err != nil {
		t.Fatal(err)
	}
	left := tableOf(t, "id,name\n1,alpha research institute\n2,bravo analytics bureau\n")
	tab, err := CompileTable(prog, left, "name", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tab.Row(0)
	if tab.MultiColumn() || tab.RowWidth() != 1 || tab.Len() != 2 || err != nil || row[0] != "alpha research institute" {
		t.Errorf("single-column compile: width=%d len=%d row 0=%q (%v)", tab.RowWidth(), tab.Len(), row, err)
	}
	if _, err := CompileTable(prog, left, "nope", core.Options{}); err == nil {
		t.Error("missing key column accepted")
	}

	multi, err := core.DecodeProgram([]byte(`{
		"version": 1,
		"configurations": [{"preprocess": "L", "distance": "ED", "threshold": 0.4}],
		"columns": [0, 1], "weights": [0.5, 0.5], "blocking_beta": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tab, err = CompileTable(multi, left, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.MultiColumn() || tab.RowWidth() != 2 {
		t.Errorf("multi-column compile: multi=%v width=%d", tab.MultiColumn(), tab.RowWidth())
	}
	if row, err := tab.Row(0); err != nil || core.DisplayRow(row, true) != "1 alpha research institute" {
		t.Errorf("multi-column display value: %q (%v)", core.DisplayRow(row, true), err)
	}
}
