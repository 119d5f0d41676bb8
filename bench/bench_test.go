package main

import (
	"math"
	"regexp"
	"testing"
)

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7)
		c, _ := buildWorkload(name, 8)
		if a.sequenceHash() != b.sequenceHash() {
			t.Errorf("%s: the same seed gave two different op sequences", name)
		}
		if a.sequenceHash() == c.sequenceHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
		if len(a.timed) == 0 || len(a.warm) == 0 || a.nEval == 0 {
			t.Errorf("%s: empty phase (warm %d, timed %d, eval %d)", name, len(a.warm), len(a.timed), a.nEval)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := buildWorkload("nope", 1); err == nil {
		t.Fatal("an unknown workload name was accepted")
	}
}

// The evaluation set is what quality is scored on; it must not move with
// the seed, and it must contain queries with and without a true match.
func TestEvalSetIgnoresSeed(t *testing.T) {
	a, err := buildWorkload("query_novel", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildWorkload("query_novel", 4)
	if a.nEval != evalQueries || b.nEval != evalQueries {
		t.Fatalf("nEval = %d, %d; want %d", a.nEval, b.nEval, evalQueries)
	}
	withTruth, without := 0, 0
	for i := 0; i < a.nEval; i++ {
		if a.warm[i] != b.warm[i] {
			t.Fatalf("evaluation query %d differs between seeds: %+v vs %+v", i, a.warm[i], b.warm[i])
		}
		if a.warm[i].truth >= 0 {
			withTruth++
		} else {
			without++
		}
	}
	if withTruth == 0 || without == 0 {
		t.Errorf("evaluation set has %d queries with truth and %d without; want both", withTruth, without)
	}
}

func TestQueriesAreNovelAndHeldOutCarryNoTruth(t *testing.T) {
	w, err := buildWorkload("query_novel", 5)
	if err != nil {
		t.Fatal(err)
	}
	inLeft := map[string]bool{}
	for _, s := range w.ref.left {
		inLeft[s] = true
	}
	seen := map[string]bool{}
	for _, o := range append(append([]op(nil), w.warm...), w.timed...) {
		if inLeft[o.text] {
			t.Errorf("query %q is a reference row, not a never-seen form", o.text)
		}
		if seen[o.text] {
			t.Errorf("query %q appears twice in a workload of distinct queries", o.text)
		}
		seen[o.text] = true
		if o.truth >= len(w.ref.left) {
			t.Errorf("query %q has truth %d outside the table", o.text, o.truth)
		}
	}
	// A generator whose table is empty of everything but held-out records
	// can only make held-out queries, and none may carry a truth.
	g := newQueryGen(&refData{left: []string{"alpha beta gamma"}, heldOut: []string{"delta epsilon zeta"}}, 9)
	sawHeldOut := false
	for i := 0; i < 200; i++ {
		o := g.novel()
		if o.truth == -1 {
			sawHeldOut = true
		} else if o.truth != 0 {
			t.Fatalf("truth %d for a one-row table", o.truth)
		}
	}
	if !sawHeldOut {
		t.Error("200 queries and not one from a held-out entity")
	}
}

func TestChurnMixesMutations(t *testing.T) {
	w, err := buildWorkload("table_churn", 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[opKind]int{}
	rows := len(w.ref.left)
	for _, o := range w.timed {
		counts[o.kind]++
		switch o.kind {
		case opAdd:
			rows++
		case opRemove:
			if o.index < 0 || o.index >= rows {
				t.Fatalf("remove of row %d from a table of %d", o.index, rows)
			}
			rows--
		}
	}
	if counts[opAdd] == 0 || counts[opRemove] == 0 || counts[opCompact] == 0 {
		t.Errorf("op mix %v lacks an add, a remove or a compaction", counts)
	}
	if got := counts[opAdd] + counts[opRemove] + counts[opCompact]; got != churnTimedOps/churnMutateEach {
		t.Errorf("%d writes among %d ops, want one in every %d", got, churnTimedOps, churnMutateEach)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample must read as NaN, never as a time")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {90, 90}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.1},
		{100, 90, "lower", -0.1},
		{100, 90, "higher", 0.1},
		{100, 110, "higher", -0.1},
		{0, 5, "lower", 0},
	} {
		if got := worsening(c.base, c.cur, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.base, c.cur, c.better, got, c.want)
		}
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "query", Start: 0, End: 100, Parent: -1},
		{Name: "blocking.topk", Start: 10, End: 40, Parent: 0, Count: 7},
		{Name: "config.arena_eval", Start: 40, End: 90, Parent: 0, Count: 5},
		{Name: "query", Start: 100, End: 150, Parent: -1},
	}}
	got := r.selfTimes()
	if q := got["query"]; q.self != 70 || q.spans != 2 {
		t.Errorf("query self = %v over %d spans, want 70ns over 2", q.self, q.spans)
	}
	if b := got["blocking.topk"]; b.self != 30 || b.count != 7 {
		t.Errorf("blocking.topk = %+v, want self 30ns count 7", b)
	}
	var none *recorder
	none.end(none.begin("x", -1, 0), 1) // a nil recorder records nothing and must not panic
}

func TestFailedOpsCountsEachKindOnce(t *testing.T) {
	w := &workload{warm: make([]op, 1), timed: make([]op, 4)}
	e := &epochOut{
		latUS:   []float64{10, 10, 3e6, 10},
		answers: []string{"w", "a", "b", "c", "d"},
		errored: []bool{false, true, false, false, false},
	}
	oracle := []string{"w", "a", "b", "c", "X"}
	if got := failedOps(w, e, oracle); got != 3 {
		t.Errorf("failedOps = %d, want 3 (one error, one over %v, one wrong answer)", got, opTimeout)
	}
	oracle[4] = "d"
	e.errored[1], e.latUS[2] = false, 10
	if got := failedOps(w, e, oracle); got != 0 {
		t.Errorf("failedOps = %d on a clean epoch", got)
	}
}

func TestQualityTally(t *testing.T) {
	var q quality
	q.add(quality{answered: 1, correct: 1, withTruth: 1, estSum: 0.5})
	q.add(quality{answered: 1, correct: 0, withTruth: 0, estSum: 1})
	q.add(quality{answered: 0, correct: 0, withTruth: 1})
	if q.precision() != 0.5 || q.recall() != 0.5 || q.precisionGap() != 0.25 {
		t.Errorf("precision %v recall %v gap %v, want 0.5 0.5 0.25", q.precision(), q.recall(), q.precisionGap())
	}
}

func TestEmitInsistsOnDeclaredMetrics(t *testing.T) {
	units := map[string]string{"a": "s", "b": "us"}
	r := &runResult{Metrics: map[string]metric{}}
	if err := r.emit(units, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if err := r.emit(units, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if err := r.emit(units, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("a NaN was accepted as a measurement")
	}
	if err := r.emit(units, map[string]float64{"a": 1, "b": 2}); err != nil || r.Metrics["b"] != (metric{2, "us"}) {
		t.Errorf("emit = %v, metrics %v", err, r.Metrics)
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units, inside the contract's limits.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(sp.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloadNames[i])
		}
		if w.Why != workloadWhy[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be the harness's, 1..200 characters (got %d)", w.Name, len(w.Why))
		}
	}

	check := func(kind string, specs []metricSpec, units map[string]string, bounded bool) {
		t.Helper()
		if len(specs) != len(units) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d printed by the harness", len(specs), kind, len(units))
		}
		for _, m := range specs {
			name(m.Name)
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %q is not printed by the harness", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q has unit %q in BENCHMARK.json, %q in the harness", kind, m.Name, m.Unit, u)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("unit %q of %q is outside the contract", m.Unit, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%q: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%q: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", sp.EndToEnd, endToEndUnits, true)
	check("per-layer", sp.PerLayer, perLayerUnits, false)
	if _, ok := endToEndUnits["setup_s"]; !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
	if want := 3 * epochSeconds; sp.RunSeconds != want {
		t.Errorf("run_seconds = %d, want %d: three epochs per run", sp.RunSeconds, want)
	}
}
