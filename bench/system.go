package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	autofj "github.com/chu-data-lab/autofuzzyjoin-go"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// quality is the tally precision, recall and precision_gap come from.
type quality struct {
	answered  int     // answers given
	correct   int     // answers equal to the ground truth
	withTruth int     // queries that have a true match
	estSum    float64 // sum of the estimated precision of the answers given
}

func (q *quality) add(o quality) {
	q.answered += o.answered
	q.correct += o.correct
	q.withTruth += o.withTruth
	q.estSum += o.estSum
}

func (q quality) precision() float64 { return float64(q.correct) / float64(q.answered) }
func (q quality) recall() float64    { return float64(q.correct) / float64(q.withTruth) }
func (q quality) precisionGap() float64 {
	return math.Abs(q.estSum/float64(q.answered) - q.precision())
}

// answer is what one op returned: text in a canonical form that two
// executions of the same op must reproduce byte for byte, and the op's
// contribution to the quality tally.
type answer struct {
	text string
	q    quality
}

// matchAnswer renders a query answer. Floats are written as their bits: an
// answer that differs in the last place is a different answer.
func matchAnswer(m core.Match, ok bool, truth int) answer {
	a := answer{text: fmt.Sprintf("%t %d %d %016x %016x", ok, m.Left, m.Config,
		math.Float64bits(m.Distance), math.Float64bits(m.Precision))}
	if truth >= 0 {
		a.q.withTruth = 1
	}
	if ok {
		a.q.answered = 1
		a.q.estSum = m.Precision
		if m.Left == truth {
			a.q.correct = 1
		}
	}
	return a
}

// counters are cumulative cache and batch counts of a system; the harness
// takes their difference over the timed phase.
type counters struct {
	coreHits, coreMisses    uint64 // core query-normalization cache
	serveHits, serveMisses  uint64 // serve result LRU
	batches, batchedQueries uint64 // serve micro-batcher
}

func (c counters) sub(o counters) counters {
	return counters{
		c.coreHits - o.coreHits, c.coreMisses - o.coreMisses,
		c.serveHits - o.serveHits, c.serveMisses - o.serveMisses,
		c.batches - o.batches, c.batchedQueries - o.batchedQueries,
	}
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// system is the thing an epoch builds from scratch, drives and tears down.
// Its three implementations are the three ways the repository is used: the
// learner, a compiled table in process, and the daemon over HTTP.
type system interface {
	// do runs one op to completion. It is called from w.clients goroutines.
	do(o *op) (answer, error)
	counters() (counters, error)
	// peakRSSMB is VmHWM of the process hosting the system.
	peakRSSMB() (float64, error)
	close() error
}

// inProcess is the part of a system that runs inside the harness: its
// memory is the harness's and there is nothing to tear down.
type inProcess struct{}

func (inProcess) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }
func (inProcess) close() error                { return nil }

// learnSystem runs autofj.Learn on the workload's tasks.
type learnSystem struct {
	inProcess
	tasks []learnTask
}

func (s learnSystem) do(o *op) (answer, error) {
	t := s.tasks[o.index]
	res, _, err := autofj.Learn(t.left, t.right, autofj.Options{})
	if err != nil {
		return answer{}, err
	}
	var sb strings.Builder
	sb.WriteString(res.ProgramString())
	a := answer{q: quality{answered: len(res.Joins), withTruth: len(t.truth)}}
	for _, j := range res.Joins {
		fmt.Fprintf(&sb, "|%d %d %d %016x %016x", j.Right, j.Left, j.Config,
			math.Float64bits(j.Distance), math.Float64bits(j.Precision))
		a.q.estSum += j.Precision
		if l, ok := t.truth[j.Right]; ok && l == j.Left {
			a.q.correct++
		}
	}
	a.text = sb.String()
	return a, nil
}

func (learnSystem) counters() (counters, error) { return counters{}, nil }

// learnServingProgram learns the program every serving workload serves:
// default options on the training task.
func learnServingProgram(ref *refData) (*core.Program, error) {
	res, err := autofj.Join(ref.trainL, ref.trainR, autofj.Options{})
	if err != nil {
		return nil, err
	}
	return res.ToProgram(), nil
}

func singleCellRows(left []string) [][]string {
	rows := make([][]string, len(left))
	for i, s := range left {
		rows[i] = []string{s}
	}
	return rows
}

// tableSystem is a core.Table in this process.
type tableSystem struct {
	inProcess
	tab *core.Table
}

// newTableSystem learns the serving program and compiles the reference
// table under it; both are part of an epoch's set-up.
func newTableSystem(ref *refData) (*tableSystem, error) {
	prog, err := learnServingProgram(ref)
	if err != nil {
		return nil, err
	}
	tab, err := prog.NewTable(1, singleCellRows(ref.left), core.Options{})
	if err != nil {
		return nil, err
	}
	return &tableSystem{tab: tab}, nil
}

func (s *tableSystem) do(o *op) (answer, error) {
	switch o.kind {
	case opQuery:
		m, ok, err := s.tab.Match(context.Background(), o.text)
		if err != nil {
			return answer{}, err
		}
		return matchAnswer(m, ok, o.truth), nil
	case opAdd:
		gen, err := s.tab.Add([][]string{{o.text}})
		return answer{text: "add gen=" + strconv.FormatUint(gen, 10)}, err
	case opRemove:
		gen, err := s.tab.Remove([]int{o.index})
		return answer{text: "remove gen=" + strconv.FormatUint(gen, 10)}, err
	case opCompact:
		swapped, err := s.tab.Compact(context.Background())
		return answer{text: "compact swapped=" + strconv.FormatBool(swapped)}, err
	}
	return answer{}, fmt.Errorf("table system cannot run op kind %d", o.kind)
}

func (s *tableSystem) counters() (counters, error) {
	h, m := s.tab.QueryCacheStats()
	return counters{coreHits: h, coreMisses: m}, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
