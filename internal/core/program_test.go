package core

import (
	"math/rand"
	"strings"
	"testing"
)

func TestProgramRoundTrip(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(17))
	var R []string
	for i := 0; i < len(L); i += 3 {
		R = append(R, perturb(rng, L[i]))
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program) == 0 {
		t.Fatal("no program learned")
	}
	prog := res.ToProgram()
	data, err := prog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Configurations) != len(res.Program) {
		t.Fatalf("round trip lost configurations: %d vs %d",
			len(back.Configurations), len(res.Program))
	}
	if len(back.NegativeRules) != res.NegativeRules.Len() {
		t.Fatalf("round trip lost rules: %d vs %d",
			len(back.NegativeRules), res.NegativeRules.Len())
	}
}

func TestProgramApplyMatchesLearnedJoins(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(19))
	var R []string
	for i := 0; i < len(L); i += 4 {
		R = append(R, perturb(rng, L[i]))
	}
	res, err := JoinTables(L, R, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	joins, err := res.ToProgram().Apply(L, R)
	if err != nil {
		t.Fatal(err)
	}
	// Applying the learned program to the same tables must reproduce the
	// learned mapping almost exactly (conflict resolution differs: apply
	// uses threshold-normalized distance instead of precision estimates).
	learned := res.Mapping()
	applied := map[int]int{}
	for _, j := range joins {
		applied[j.Right] = j.Left
	}
	if len(applied) == 0 {
		t.Fatal("applied program produced no joins")
	}
	agree := 0
	for r, l := range applied {
		if learned[r] == l {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(applied)); frac < 0.9 {
		t.Errorf("only %.2f of applied joins agree with learned joins", frac)
	}
	// Every learned join should be re-producible by the program.
	if len(applied) < len(learned)*9/10 {
		t.Errorf("applied %d joins, learned %d", len(applied), len(learned))
	}
}

func TestProgramApplyToFreshData(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(23))
	var trainR, freshR []string
	var freshTruth []int
	for i := 0; i < len(L); i += 3 {
		trainR = append(trainR, perturb(rng, L[i]))
	}
	for i := 1; i < len(L); i += 5 {
		freshR = append(freshR, perturb(rng, L[i]))
		freshTruth = append(freshTruth, i)
	}
	res, err := JoinTables(L, trainR, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	joins, err := res.ToProgram().Apply(L, freshR)
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) == 0 {
		t.Fatal("program joined nothing on fresh data")
	}
	correct := 0
	for _, j := range joins {
		if freshTruth[j.Right] == j.Left {
			correct++
		}
	}
	if prec := float64(correct) / float64(len(joins)); prec < 0.7 {
		t.Errorf("applied-program precision %.2f on fresh data", prec)
	}
}

func TestProgramApplyMultiColumn(t *testing.T) {
	leftCols, rightCols, truth := makeMovieTables(false)
	res, err := JoinMultiColumnTables(leftCols, rightCols, multiOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) == 0 {
		t.Fatal("no columns selected")
	}
	data, err := res.ToProgram().Encode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Columns) != len(res.Columns) {
		t.Fatalf("columns lost in round trip: %v vs %v", prog.Columns, res.Columns)
	}
	joins, err := prog.ApplyMultiColumn(leftCols, rightCols)
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) == 0 {
		t.Fatal("re-applied multi-column program joined nothing")
	}
	correct := 0
	for _, j := range joins {
		if truth[j.Right] == j.Left {
			correct++
		}
	}
	if prec := float64(correct) / float64(len(joins)); prec < 0.7 {
		t.Errorf("re-applied precision %.2f", prec)
	}
}

func TestApplyMultiColumnErrors(t *testing.T) {
	p := &Program{Version: 1}
	if _, err := p.ApplyMultiColumn([][]string{{"a"}}, [][]string{{"a"}}); err == nil {
		t.Error("program without weights accepted")
	}
	p.Columns = []int{5}
	p.Weights = []float64{1}
	if _, err := p.ApplyMultiColumn([][]string{{"a"}}, [][]string{{"a"}}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestDecodeProgramErrors(t *testing.T) {
	if _, err := DecodeProgram([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := DecodeProgram([]byte(`{"version":2}`)); err == nil {
		t.Error("unknown version accepted")
	}
	bad := []byte(`{"version":1,"configurations":[{"preprocess":"L","distance":"NOPE","threshold":0.2}]}`)
	if _, err := DecodeProgram(bad); err == nil {
		t.Error("unknown distance accepted")
	}
	bad = []byte(`{"version":1,"configurations":[{"preprocess":"L","distance":"ED","threshold":7}]}`)
	if _, err := DecodeProgram(bad); err == nil {
		t.Error("out-of-range threshold accepted")
	}
	bad = []byte(`{"version":1,"configurations":[{"preprocess":"L","distance":"JD","tokenization":"??","token_weights":"EW","threshold":0.2}]}`)
	if _, err := DecodeProgram(bad); err == nil {
		t.Error("unknown tokenization accepted")
	}
}

// TestDecodeProgramLegacyBallRadius: a program saved with the former
// ball_radius_factor key loads when the value is the Eq. 8 radius and
// re-encodes without the key; any other radius is refused by name.
func TestDecodeProgramLegacyBallRadius(t *testing.T) {
	const cfg = `"configurations":[{"preprocess":"L","distance":"ED","threshold":0.2}]`
	p, err := DecodeProgram([]byte(`{"version":1,` + cfg + `,"ball_radius_factor":2}`))
	if err != nil {
		t.Fatalf("radius 2 rejected: %v", err)
	}
	if data, err := p.Encode(); err != nil || strings.Contains(string(data), "ball_radius_factor") {
		t.Errorf("re-encoded program = %s, %v; want no ball_radius_factor key", data, err)
	}
	_, err = DecodeProgram([]byte(`{"version":1,` + cfg + `,"ball_radius_factor":3}`))
	if err == nil || !strings.Contains(err.Error(), "ball_radius_factor") {
		t.Errorf("radius 3: err = %v, want an error naming ball_radius_factor", err)
	}
}

func TestParallelismIsDeterministic(t *testing.T) {
	L := makeReference()
	rng := rand.New(rand.NewSource(29))
	var R []string
	for i := 0; i < len(L); i += 4 {
		R = append(R, perturb(rng, L[i]))
	}
	seq := testOptions()
	seq.Parallelism = 1
	par := testOptions()
	par.Parallelism = 8
	a, err := JoinTables(L, R, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JoinTables(L, R, par)
	if err != nil {
		t.Fatal(err)
	}
	if a.ProgramString() != b.ProgramString() {
		t.Errorf("programs differ:\n seq: %s\n par: %s", a.ProgramString(), b.ProgramString())
	}
	am, bm := a.Mapping(), b.Mapping()
	if len(am) != len(bm) {
		t.Fatalf("join counts differ: %d vs %d", len(am), len(bm))
	}
	for r, l := range am {
		if bm[r] != l {
			t.Fatalf("join for right %d differs: %d vs %d", r, l, bm[r])
		}
	}
}
