package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// makeReference builds a duplicate-free reference table whose closest
// neighbours differ in a structured way (year and sport), mirroring the
// paper's NCAA example.
func makeReference() []string {
	var L []string
	teams := []string{"wisconsin badgers", "lsu tigers", "michigan wolverines",
		"ohio state buckeyes", "oregon ducks", "texas longhorns",
		"auburn tigers", "georgia bulldogs", "florida gators", "usc trojans"}
	sports := []string{"football", "baseball", "basketball"}
	for _, team := range teams {
		for _, sport := range sports {
			for year := 2005; year <= 2012; year++ {
				L = append(L, fmt.Sprintf("%d %s %s team", year, team, sport))
			}
		}
	}
	return L
}

// perturb applies a mix of the paper's variation types.
func perturb(rng *rand.Rand, s string) string {
	switch rng.Intn(3) {
	case 0: // token substitution: team -> season
		return strings.Replace(s, "team", "season", 1)
	case 1: // typo: drop one character from a word
		runes := []rune(s)
		i := 1 + rng.Intn(len(runes)-2)
		return string(runes[:i]) + string(runes[i+1:])
	default: // extra token
		return s + " ncaa"
	}
}

func testOptions() Options {
	return Options{
		Space:          config.ReducedSpace(),
		ThresholdSteps: 20,
	}
}

func TestJoinRecoversPerturbedRecords(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(7))
	var R []string
	var truth []int
	for i := 0; i < len(L); i += 3 {
		R = append(R, perturb(rng, L[i]))
		truth = append(truth, i)
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program) == 0 {
		t.Fatal("no program selected")
	}
	correct, wrong := 0, 0
	for _, j := range res.Joins {
		if truth[j.Right] == j.Left {
			correct++
		} else {
			wrong++
		}
	}
	total := correct + wrong
	if total == 0 {
		t.Fatal("no joins produced")
	}
	prec := float64(correct) / float64(total)
	recall := float64(correct) / float64(len(R))
	if prec < 0.8 {
		t.Errorf("actual precision %.3f below 0.8 (%d/%d)", prec, correct, total)
	}
	// This reference table is adversarially regular: every record has ~23
	// one-token neighbours, so the 2d-ball estimator rightly refuses many
	// borderline joins. 0.4 recall at 0.8+ precision is the expected regime
	// (the paper's average recall on its 50 hard tasks is 0.624).
	if recall < 0.4 {
		t.Errorf("recall %.3f below 0.4", recall)
	}
	if res.EstPrecision <= 0.9 {
		t.Errorf("estimated precision %.3f should exceed τ=0.9", res.EstPrecision)
	}
}

// TestTimingCountsRepresentationBuilding: every learning entry point
// reports the time spent building corpus statistics and profiles as its
// own component, and Total includes it.
func TestTimingCountsRepresentationBuilding(t *testing.T) {
	L := makeReference()[:60]
	R := []string{L[3] + " ncaa", L[10], L[41] + " x"}
	single, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	self, err := SelfJoin(L, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	leftCols, rightCols, _ := makeMovieTables(false)
	multi, err := JoinMultiColumnTables(leftCols, rightCols, multiOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, tm := range map[string]Timing{"JoinTables": single.Timing, "SelfJoin": self.Timing, "JoinMultiColumnTables": multi.Timing} {
		if tm.Profile <= 0 || tm.Blocking <= 0 {
			t.Errorf("%s: Timing %+v has no profile or blocking time", name, tm)
		}
		if tm.Total() != tm.Blocking+tm.Profile+tm.Precompute+tm.Greedy {
			t.Errorf("%s: Total %v is not the sum of %+v", name, tm.Total(), tm)
		}
	}
}

func TestJoinIsManyToOne(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(11))
	var R []string
	for i := 0; i < 60; i++ {
		R = append(R, perturb(rng, L[rng.Intn(len(L))]))
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, j := range res.Joins {
		if seen[j.Right] {
			t.Fatalf("right record %d joined twice", j.Right)
		}
		seen[j.Right] = true
		if j.Left < 0 || j.Left >= len(L) {
			t.Fatalf("join target %d out of range", j.Left)
		}
		if j.Precision <= 0 || j.Precision > 1 {
			t.Fatalf("join precision %f out of range", j.Precision)
		}
	}
}

func TestUnrelatedTablesProduceFewJoins(t *testing.T) {
	L := makeReference()
	var R []string
	for i := 0; i < 80; i++ {
		R = append(R, fmt.Sprintf("hospital sankt %c%c%c clinic unit %d",
			'a'+i%26, 'f'+i%20, 'b'+i%24, i*37))
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fpRate := float64(len(res.Joins)) / float64(len(R))
	if fpRate > 0.1 {
		t.Errorf("false-positive rate %.3f on unrelated tables (>10%%): %d joins", fpRate, len(res.Joins))
	}
}

func TestNegativeRulesPreventSportSwaps(t *testing.T) {
	L := makeReference()
	// Right records that swap the sport: closest left record is the other
	// sport's entry, which must not join.
	R := []string{
		"2008 wisconsin badgers waterpolo team",
		"2006 lsu tigers handball team",
	}
	opt := testOptions()
	res, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NegativeRules == nil || res.NegativeRules.Len() == 0 {
		t.Fatal("expected negative rules to be learned from the reference table")
	}
	// The learned rules must include sport and year pairs.
	foundSport := false
	for _, rule := range res.NegativeRules.Rules() {
		if rule.A == "basebal" && rule.B == "footbal" {
			foundSport = true
		}
	}
	if !foundSport {
		t.Errorf("football/baseball rule not learned; rules=%v", res.NegativeRules.Rules())
	}
}

func TestUnionBeatsSingleConfiguration(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(3))
	var R []string
	var truth []int
	for i := 0; i < len(L); i += 2 {
		R = append(R, perturb(rng, L[i]))
		truth = append(truth, i)
	}
	opt := testOptions()
	union, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.SingleConfiguration = true
	single, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Program) > 1 {
		t.Fatalf("UC ablation produced %d configurations", len(single.Program))
	}
	countCorrect := func(res *Result) int {
		n := 0
		for _, j := range res.Joins {
			if truth[j.Right] == j.Left {
				n++
			}
		}
		return n
	}
	if countCorrect(union) < countCorrect(single) {
		t.Errorf("union recall %d below single-config recall %d",
			countCorrect(union), countCorrect(single))
	}
}

func TestTraceIsMonotone(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(5))
	var R []string
	for i := 0; i < len(L); i += 4 {
		R = append(R, perturb(rng, L[i]))
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].EstRecall < res.Trace[i-1].EstRecall {
			t.Errorf("estimated recall decreased at iteration %d", i)
		}
		if res.Trace[i].Joined < res.Trace[i-1].Joined {
			t.Errorf("joined count decreased at iteration %d", i)
		}
	}
	if len(res.Trace) != len(res.Program) {
		t.Errorf("trace length %d != program length %d", len(res.Trace), len(res.Program))
	}
}

func TestEmptyInputs(t *testing.T) {
	res, err := JoinTables(nil, []string{"x"}, Options{})
	if err != nil || len(res.Joins) != 0 {
		t.Errorf("empty L: res=%v err=%v", res, err)
	}
	res, err = JoinTables([]string{"x"}, nil, Options{})
	if err != nil || len(res.Joins) != 0 {
		t.Errorf("empty R: res=%v err=%v", res, err)
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := JoinTables([]string{"a"}, []string{"a"}, Options{PrecisionTarget: 1.5}); err == nil {
		t.Error("expected error for precision target > 1")
	}
}

func TestLowerPrecisionTargetGivesMoreJoins(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(13))
	var R []string
	for i := 0; i < len(L); i += 2 {
		R = append(R, perturb(rng, L[i]))
	}
	opt := testOptions()
	opt.PrecisionTarget = 0.9
	high, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.PrecisionTarget = 0.5
	low, err := JoinTables(L, R, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Joins) < len(high.Joins) {
		t.Errorf("τ=0.5 produced %d joins, fewer than τ=0.9's %d",
			len(low.Joins), len(high.Joins))
	}
}
