package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
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

// NoMatch returns the canonical unmatched result (Left and Config -1) —
// what serving layers should answer for a query they could not run.
func NoMatch() Match { return noMatch() }

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
	rows := make([][]string, len(left))
	for i := range left {
		rows[i] = left[i : i+1 : i+1] // NewTable copies every row
	}
	return p.NewTable(1, rows, opt)
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
	rows := make([][]string, nL)
	for i := range rows {
		row := make([]string, len(leftCols))
		for j, col := range leftCols {
			row[j] = col[i]
		}
		rows[i] = row
	}
	return p.NewTable(len(leftCols), rows, opt)
}

// ballRadii returns every configuration's ball radius, factor·θ.
func ballRadii(configs []Configuration, factor float64) []float64 {
	radii := make([]float64, len(configs))
	for ci, c := range configs {
		radii[ci] = factor * c.Threshold
	}
	return radii
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
	// profs holds the query profiles, one per program column.
	profs []*config.Profile
	// qcells are the projected query cells of a multi-column row, for the
	// missing-value rule.
	qcells []string
}

// concatRow builds the blocking key of a full row, matching the
// concatColumns normalization used at learning time.
func concatRow(row []string) string {
	return strings.Join(strings.Fields(strings.Join(row, " ")), " ")
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

// streamChunk is the pipelining granularity of MatchStream: big enough to
// amortize batch fan-out, small enough to keep results flowing.
const streamChunk = 128

// matchStream is the streaming pipeline behind Table.MatchStream,
// parameterized by the batch matcher it feeds.
func matchStream(ctx context.Context, multi bool, records iter.Seq[string], batch func(context.Context, []string) ([]Match, error)) iter.Seq2[StreamMatch, error] {
	return func(yield func(StreamMatch, error) bool) {
		if multi {
			yield(StreamMatch{Index: -1, Match: noMatch()}, errNeedRow)
			return
		}
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		type chunk struct {
			base int
			recs []string
			res  []Match
			err  error
		}
		ch := make(chan chunk, 1)
		// stopErr records a silent early producer stop; the write happens
		// before close(ch), so the consumer's post-drain read is ordered.
		var stopErr error
		go func() {
			defer close(ch)
			base := 0
			buf := make([]string, 0, streamChunk)
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				recs := buf
				buf = make([]string, 0, streamChunk)
				res, err := batch(ictx, recs)
				select {
				case ch <- chunk{base: base, recs: recs, res: res, err: err}:
				case <-ictx.Done():
					stopErr = ictx.Err()
					return false
				}
				base += len(recs)
				return err == nil
			}
			for rec := range records {
				if err := ictx.Err(); err != nil {
					stopErr = err
					return
				}
				buf = append(buf, rec)
				if len(buf) >= streamChunk && !flush() {
					return
				}
			}
			flush()
		}()
		for c := range ch {
			if c.err != nil {
				yield(StreamMatch{Index: c.base, Match: noMatch()}, c.err)
				return
			}
			for i := range c.res {
				sm := StreamMatch{
					Index:  c.base + i,
					Record: c.recs[i],
					Match:  c.res[i],
					OK:     c.res[i].Left >= 0,
				}
				if !yield(sm, nil) {
					return
				}
			}
		}
		// The producer may have stopped silently on cancellation; surface
		// that as a final yielded error — but only when it actually cut
		// the stream short (a deadline expiring after the last result was
		// delivered is not a failure).
		if stopErr != nil {
			if err := ctx.Err(); err != nil {
				yield(StreamMatch{Index: -1, Match: noMatch()}, err)
			}
		}
	}
}
