package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// Match is the outcome of matching one query record against a compiled
// reference table.
type Match struct {
	// Left is the matched reference record index; -1 when unmatched.
	Left int
	// Distance is the distance under the configuration that matched.
	Distance float64
	// Precision is the unsupervised per-join precision estimate (Eq. 9):
	// 1 / (number of reference records in the 2θ-ball around Left).
	Precision float64
	// Config indexes the program's Configurations; -1 when unmatched.
	Config int
}

// noMatch is the canonical unmatched result.
func noMatch() Match { return Match{Left: -1, Config: -1} }

// Matcher is the serving handle Learn, Compile and CompileMultiColumn
// return: a Table built from the reference table's rows. The name keeps
// the learn-once / serve-many API of the library; every Table method
// (Match, MatchRow, MatchBatch, MatchRows, MatchStream, and the Add /
// Remove / Compact mutators) applies.
type Matcher = Table

var errNeedRow = errors.New("core: matcher was compiled from a multi-column program; use MatchRow or MatchRows")

// Compile builds a serving Matcher for a single-column program against
// the reference table left: a Table whose rows are left's records as
// one-cell rows (see NewTable). Preparation (blocking index, profiles,
// IDF statistics) happens once, sharded across opt.Parallelism workers;
// the same knob bounds MatchBatch fan-out. Programs learned by the
// multi-column search must use CompileMultiColumn.
func (p *Program) Compile(left []string, opt Options) (*Matcher, error) {
	if len(p.Columns) > 0 {
		return nil, errors.New("core: program was learned on multiple columns; use CompileMultiColumn")
	}
	return p.NewTable(1, oneCellRows(left), opt)
}

// oneCellRows views each record of left as a one-cell row.
func oneCellRows(left []string) [][]string {
	rows := make([][]string, len(left))
	for i := range left {
		rows[i] = left[i : i+1 : i+1] // NewTable copies every row
	}
	return rows
}

// CompileMultiColumn builds a serving Matcher for a multi-column program:
// leftCols are the full columns of the reference table (the stored column
// selection indexes into them), and queries arrive as full rows via
// MatchRow/MatchRows. A program whose search selected no columns compiles
// into a handle of the same row width that never matches.
func (p *Program) CompileMultiColumn(leftCols [][]string, opt Options) (*Matcher, error) {
	if len(p.Columns) != len(p.Weights) ||
		(len(p.Columns) == 0 && len(p.Configurations) > 0) {
		return nil, errors.New("core: program has no multi-column weights; use Compile")
	}
	if len(leftCols) == 0 {
		return nil, errColumnShape
	}
	nL := len(leftCols[0])
	for _, col := range leftCols {
		if len(col) != nL {
			return nil, errColumnShape
		}
	}
	for _, c := range p.Columns {
		if c < 0 || c >= len(leftCols) {
			return nil, fmt.Errorf("core: program column %d out of range", c)
		}
	}
	return p.NewTable(len(leftCols), columnRows(leftCols), opt)
}

// columnRows transposes equal-length columns into rows.
func columnRows(cols [][]string) [][]string {
	rows := make([][]string, len(cols[0]))
	cells := make([]string, len(rows)*len(cols))
	for i := range rows {
		row := cells[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, col := range cols {
			row[j] = col[i]
		}
		rows[i] = row
	}
	return rows
}

// countBallRow adds one ball candidate to every configuration's count:
// counts[ci] grows when the candidate's distance is within radii[ci],
// saturating at maxBallCount.
//
//autofj:hotpath
func countBallRow(counts []uint32, drow, radii []float64) {
	for ci, d := range drow {
		if d <= radii[ci] && counts[ci] < maxBallCount {
			counts[ci]++
		}
	}
}

// queryState is the transient miss-path state of one query: everything
// about it that does not depend on which candidate it is scored against.
// It is built per cache miss and dropped once the Match is computed.
type queryState struct {
	// cands lists the surviving candidates — blocking top-k minus
	// negative-rule vetoes — in blocking order.
	cands []int32
	// fixed holds the prepared query, one per program column.
	fixed []config.Fixed
	// A single-column query's fixed.
	fixed1 [1]config.Fixed
}

// concatRow builds the blocking key of a full row, matching the
// concatColumns normalization used at learning time.
func concatRow(row []string) string {
	return strings.Join(strings.Fields(strings.Join(row, " ")), " ")
}

// DisplayRow renders a reference row the way answers show it, which is
// also the blocking key a table derives from it: the key cell of a
// single-column row, or the whitespace-normalized concatenation of a
// multi-column row.
func DisplayRow(row []string, multi bool) string {
	if !multi {
		return row[0]
	}
	return concatRow(row)
}

// appendRowKey appends a collision-free composite cache key for a row:
// each cell is uvarint-length-prefixed, so no cell contents can forge a
// boundary (joining with a separator byte could).
//
//autofj:hotpath
func appendRowKey(dst []byte, row []string) []byte {
	for _, cell := range row {
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// StreamMatch is one element of a MatchStream: the query's position in
// the input stream, the record itself, and its match (OK reports whether
// a join was found).
type StreamMatch struct {
	Index  int
	Record string
	Match  Match
	OK     bool
}

// streamChunk is the number of records MatchStream pulls per MatchBatch
// call: big enough to amortize the batch fan-out, small enough to keep
// results flowing.
const streamChunk = 128
