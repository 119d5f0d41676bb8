// Package autofj is the public API of the Auto-FuzzyJoin library, a Go
// implementation of "Auto-FuzzyJoin: Auto-Program Fuzzy Similarity Joins
// Without Labeled Examples" (Li, Cheng, Chu, He, Chaudhuri — SIGMOD 2021).
//
// Auto-FuzzyJoin takes a reference table L (few or no duplicates), a query
// table R, and a precision target τ, and — without any labeled examples —
// automatically programs a fuzzy join: it searches a space of join
// configurations (pre-processing × tokenization × token-weights ×
// distance-function × threshold), estimates precision from the geometry of
// the reference table, and greedily selects a union of configurations that
// maximizes recall subject to the precision target.
//
// The API is two-phase — learn once, serve many:
//
//	res, matcher, err := autofj.Learn(left, right, autofj.Options{PrecisionTarget: 0.9})
//	if err != nil { ... }
//	fmt.Println("program:", res.ProgramString())
//
//	m, ok, err := matcher.Match(ctx, "2008 wisconsin badgers football")
//	if ok {
//	    fmt.Printf("-> %s (est. precision %.2f)\n", left[m.Left], m.Precision)
//	}
//
// Learn runs the configuration search (the expensive part) and compiles
// the selected program into a Matcher: a goroutine-safe serving handle
// (a Table) with the blocking index, record profiles, and negative rules
// prepared exactly once. Queries then run as cheap repeated calls —
// Matcher.Match for one record, Matcher.MatchBatch for a table (sharded
// by Options.Parallelism), and Matcher.MatchStream for an iterator of
// records, matched chunk by chunk on the caller's goroutine — all
// context-aware and bit-identical to re-applying the program from
// scratch. The same handle takes Add/Remove/Compact when
// the reference table changes.
//
// The learned program is also a portable artifact: save it with
// Result.ToProgram and Program.Encode, restore it with LoadProgram, and
// rebuild a serving handle on any process with Program.Compile (or
// CompileMultiColumn, or Program.NewTable from rows). Program.Apply
// remains as a convenience that compiles and matches in one call.
//
// One-shot, table-at-a-time joins are still available:
//
//	res, err := autofj.Join(left, right, autofj.Options{PrecisionTarget: 0.9})
//	for _, j := range res.Joins {
//	    fmt.Printf("%s -> %s (est. precision %.2f)\n",
//	        right[j.Right], left[j.Left], j.Precision)
//	}
//
// All entry points (Learn, Join, JoinMultiColumn, SelfJoin, Dedup) honor
// Options.Parallelism: blocking, the distance pre-computation, matcher
// compilation, and batch matching shard across that many goroutines
// (0 means all CPUs, 1 forces sequential execution), and every
// parallelism level produces identical output.
package autofj

import (
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// Options configures a join run; see core.Options. The zero value uses the
// paper's defaults (τ=0.9, the full 140-function space, 50 threshold
// steps, blocking factor β=1).
type Options = core.Options

// Result is the output of a join: the selected disjunctive program, the
// induced many-to-one join mapping, and the label-free quality estimates.
type Result = core.Result

// Configuration is one selected ⟨join function, threshold⟩ pair.
type Configuration = core.Configuration

// JoinPair is one output row (a right-record to left-record assignment).
type JoinPair = core.Join

// JoinFunction is one point of the (pre-processing, tokenization,
// token-weights, distance) space.
type JoinFunction = config.JoinFunction

// Matcher is a join program compiled against a reference table: the
// Table that Learn, Program.Compile and Program.CompileMultiColumn
// return. Its blocking index, record profiles, and negative rules are
// built exactly once, so queries are cheap repeatable calls (Match,
// MatchBatch, MatchRow, MatchRows, MatchStream) instead of the
// rebuild-per-call of Program.Apply.
type Matcher = core.Matcher

// Match is the outcome of matching one query record against a Matcher.
type Match = core.Match

// StreamMatch is one element of a Matcher.MatchStream.
type StreamMatch = core.StreamMatch

// Table is a join program compiled against a MUTABLE reference table:
// immutable compiled segments plus a small delta, with Add/Remove/Compact
// for in-place reference-table updates and binary Save/Load snapshots for
// fast restarts. It is the one query engine (Matcher is the same type).
// Build one with Program.NewTable from rows, or with Program.Compile from
// a column; every query is bit-identical to a full recompile of the
// current rows.
type Table = core.Table

// TableBatch is a Table batch answer bound to the generation that
// produced it.
type TableBatch = core.TableBatch

// LoadTable reconstructs a Table from binary snapshot bytes produced by
// Table.Save.
func LoadTable(data []byte, opt Options) (*Table, error) { return core.LoadTable(data, opt) }

// LoadTableFile loads a Table snapshot from a file.
func LoadTableFile(path string, opt Options) (*Table, error) { return core.LoadTableFile(path, opt) }

// Learn runs single-column Auto-FuzzyJoin and compiles the learned
// program into a serving Matcher in one step: the Result carries the
// explainable program and the training-time joins, and the Matcher — a
// Table over left's records — answers future queries against left
// without re-learning. This is the recommended deployment entry point.
//
// The Matcher is the one res.ToProgram().Compile(left, opt) would build,
// but built from what the search already made over left — its blocking
// index, negative-rule word sets and pre-processed strings — instead of
// from scratch.
func Learn(left, right []string, opt Options) (*Result, *Matcher, error) {
	return core.Learn(left, right, opt)
}

// LearnMultiColumn is the multi-column form of Learn: the compiled
// Matcher answers full-row queries via MatchRow/MatchRows. If the search
// selects no columns the Matcher simply never matches.
func LearnMultiColumn(leftCols, rightCols [][]string, opt Options) (*Result, *Matcher, error) {
	res, err := core.JoinMultiColumnTables(leftCols, rightCols, opt)
	if err != nil {
		return nil, nil, err
	}
	m, err := res.ToProgram().CompileMultiColumn(leftCols, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// Join runs single-column Auto-FuzzyJoin: left is the reference table,
// right the query table.
func Join(left, right []string, opt Options) (*Result, error) {
	return core.JoinTables(left, right, opt)
}

// JoinMultiColumn runs multi-column Auto-FuzzyJoin: leftCols[j] and
// rightCols[j] are the j-th columns. Column selection and weighting are
// automatic (Algorithm 3 of the paper).
func JoinMultiColumn(leftCols, rightCols [][]string, opt Options) (*Result, error) {
	return core.JoinMultiColumnTables(leftCols, rightCols, opt)
}

// Program is a serializable learned join program that can be saved as JSON
// and re-applied to fresh tables without re-learning.
type Program = core.Program

// LoadProgram parses a JSON-encoded program produced by Result.ToProgram.
func LoadProgram(data []byte) (*Program, error) { return core.DecodeProgram(data) }

// SelfJoin finds fuzzy-duplicate pairs within one table (the table plays
// both the reference and the query role; identity pairs are excluded).
func SelfJoin(records []string, opt Options) (*Result, error) {
	return core.SelfJoin(records, opt)
}

// Dedup clusters a table's fuzzy duplicates, returning clusters of record
// indexes (size >= 2).
func Dedup(records []string, opt Options) ([][]int, error) {
	return core.Dedup(records, opt)
}

// FullSpace returns the paper's 140-function configuration space (Table 1).
func FullSpace() []JoinFunction { return config.Space() }

// ReducedSpace returns the 24-function space of the paper's
// reduced-configuration experiments (Table 6).
func ReducedSpace() []JoinFunction { return config.ReducedSpace() }

// ExtendedSpace returns the 148-function space: the paper's Table 1 plus
// the Monge-Elkan and Smith-Waterman extension distances, demonstrating
// the framework's extensibility.
func ExtendedSpace() []JoinFunction { return config.ExtendedSpace() }

// SpaceOfSize returns a nested deterministic subspace with about n
// functions, for configuration-space sweeps (Figure 7c/d).
func SpaceOfSize(n int) []JoinFunction { return config.SpaceOfSize(n) }
