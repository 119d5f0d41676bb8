package core

import (
	"math"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/blocking"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/negrule"
)

// pointerOracle is a retained copy of the original query path: one
// *config.Profile per reference record built by NewCorpus + Profiles, a
// fresh query profile per call, a plain blocking Index, and the
// one-function f.Distance compatibility kernel for ball counts. It is
// deliberately slow and allocation-heavy — its only job is to pin the
// exact answer the Table must keep producing.
type pointerOracle struct {
	configs  []Configuration
	multi    bool
	columns  []int
	weights  []float64
	rowWidth int

	ix    *blocking.Index
	k     int
	rules *negrule.Frozen
	cols  []oracleCol
	nL    int

	eval   *config.Evaluator
	counts []uint32
}

type oracleCol struct {
	corpus *config.Corpus
	profL  []*config.Profile
	cells  []string
}

// newPointerOracle mirrors the original compile step exactly:
// per-column corpus statistics over the reference records alone, the
// blocking index and K from the program's beta, and frozen negative
// rules over the concatenated keys.
func newPointerOracle(t testing.TB, p *Program, leftCols [][]string) *pointerOracle {
	t.Helper()
	configs, err := p.configurations()
	if err != nil {
		t.Fatal(err)
	}
	multi := len(p.Columns) > 0
	var progCols [][]string
	var leftKey []string
	if multi {
		for _, c := range p.Columns {
			progCols = append(progCols, leftCols[c])
		}
		leftKey = concatColumns(leftCols)
	} else {
		progCols = leftCols
		leftKey = leftCols[0]
	}
	beta := p.BlockingBeta
	if beta <= 0 {
		beta = DefaultBlockingBeta
	}
	o := &pointerOracle{
		configs:  configs,
		multi:    multi,
		columns:  append([]int(nil), p.Columns...),
		weights:  append([]float64(nil), p.Weights...),
		rowWidth: len(leftCols),
		nL:       len(leftKey),
	}
	o.ix = blocking.NewIndexParallel(leftKey, 1)
	o.k = blocking.K(len(leftKey), beta)
	space := make([]config.JoinFunction, len(configs))
	for i, c := range configs {
		space[i] = c.Function
	}
	o.eval = config.NewEvaluator(space)
	o.cols = make([]oracleCol, len(progCols))
	for j, colRecs := range progCols {
		corpus := config.NewCorpus(space, colRecs)
		o.cols[j] = oracleCol{
			corpus: corpus,
			profL:  corpus.Profiles(colRecs, 1),
			cells:  colRecs,
		}
	}
	if len(p.NegativeRules) > 0 {
		set := negrule.NewSet()
		for _, pair := range p.NegativeRules {
			set.Add(pair[0], pair[1])
		}
		o.rules = set.Freeze(leftKey, 1)
	}
	o.counts = make([]uint32, len(configs)*len(leftKey))
	return o
}

func (o *pointerOracle) pairDists(qprof []*config.Profile, qcells []string,
	esc *config.EvalScratch, drow, crow []float64, l int32) {
	if !o.multi {
		o.eval.Distances(o.cols[0].profL[l], qprof[0], esc, drow)
		return
	}
	for ci := range drow {
		drow[ci] = 0
	}
	for j := range o.cols {
		c := &o.cols[j]
		if c.cells[l] == "" && qcells[j] == "" {
			for ci := range drow {
				drow[ci] += o.weights[j]
			}
			continue
		}
		o.eval.Distances(c.profL[l], qprof[j], esc, crow)
		for ci := range drow {
			drow[ci] += o.weights[j] * float64(float32(crow[ci]))
		}
	}
}

func (o *pointerOracle) leftDist(ci int, a, b int32) float64 {
	f := o.configs[ci].Function
	if !o.multi {
		return f.Distance(o.cols[0].profL[a], o.cols[0].profL[b])
	}
	var d float64
	for j := range o.cols {
		c := &o.cols[j]
		if c.cells[a] == "" && c.cells[b] == "" {
			d += o.weights[j]
			continue
		}
		d += o.weights[j] * float64(float32(f.Distance(c.profL[a], c.profL[b])))
	}
	return d
}

func (o *pointerOracle) ballCount(ci int, l int32, sc *blocking.TableScratch) uint32 {
	slot := &o.counts[ci*o.nL+int(l)]
	if *slot != 0 {
		return *slot
	}
	radius := ballRadius * o.configs[ci].Threshold
	cands := o.ix.AppendTopKSelf(nil, sc, int(l), o.k)
	count := uint32(1)
	for _, c := range cands {
		if o.leftDist(ci, l, c.ID) <= radius {
			count++
		}
	}
	if count > maxBallCount {
		count = maxBallCount
	}
	*slot = count
	return count
}

// match reruns the historical matchOne: blocking top-k, negative-rule
// vetoes, fresh per-call query profiles, pair-major closest-candidate
// scan with a strict < (first minimum in blocking order), threshold and
// unjoinable filters, and the precision-ordered union resolution. It also
// returns, by configuration, the row that configuration joined (-1 when
// none): the rows whose balls the answer read.
func (o *pointerOracle) match(key string, row []string) (Match, []int32) {
	if len(o.configs) == 0 || o.nL == 0 {
		return noMatch(), nil
	}
	sc := o.ix.NewScratch()
	cands := o.ix.AppendTopK(nil, sc, key, o.k, -1)
	var ids []int32
	if o.rules != nil && o.rules.Len() > 0 {
		qwords := negrule.AppendWordSet(nil, key)
		for _, c := range cands {
			if !o.rules.Blocks(int(c.ID), qwords) {
				ids = append(ids, c.ID)
			}
		}
	} else {
		for _, c := range cands {
			ids = append(ids, c.ID)
		}
	}
	if len(ids) == 0 {
		return noMatch(), nil
	}
	qcells := make([]string, len(o.cols))
	if o.multi {
		for j, cj := range o.columns {
			qcells[j] = row[cj]
		}
	} else {
		qcells[0] = key
	}
	qprof := make([]*config.Profile, len(o.cols))
	for j := range o.cols {
		qprof[j] = o.cols[j].corpus.Profile(qcells[j])
	}
	esc := o.eval.NewScratch()
	drow := make([]float64, len(o.configs))
	crow := make([]float64, len(o.configs))
	bestD := make([]float64, len(o.configs))
	bestL := make([]int32, len(o.configs))
	for ci := range o.configs {
		bestL[ci] = -1
		bestD[ci] = math.Inf(1)
	}
	for _, l := range ids {
		o.pairDists(qprof, qcells, esc, drow, crow, l)
		for ci := range drow {
			if drow[ci] < bestD[ci] {
				bestD[ci] = drow[ci]
				bestL[ci] = l
			}
		}
	}
	best := noMatch()
	for ci := range o.configs {
		bl, bd := bestL[ci], bestD[ci]
		if bl < 0 || bd > o.configs[ci].Threshold || bd >= unjoinableDist {
			bestL[ci] = -1
			continue
		}
		pr := 1 / float64(o.ballCount(ci, bl, sc))
		switch {
		case best.Left < 0:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		case best.Left == int(bl):
			if pr > best.Precision {
				best.Precision = pr
			}
		case pr > best.Precision:
			best = Match{Left: int(bl), Distance: bd, Precision: pr, Config: ci}
		}
	}
	return best, bestL
}

func (o *pointerOracle) matchRow(row []string) (Match, []int32) {
	if !o.multi {
		return o.match(row[0], nil)
	}
	return o.match(concatRow(row), row)
}
