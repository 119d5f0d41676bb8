package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigure6aDegradesGracefully(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	s := Figure6a(cfg)
	if len(s.X) != 5 || len(s.Y) != 2 {
		t.Fatalf("series shape %dx%d", len(s.X), len(s.Y))
	}
	// Recall should be roughly unaffected by irrelevant records (paper:
	// "recall almost unaffected"); allow generous slack on tiny data.
	if s.Y[1][4] < s.Y[1][0]-0.25 {
		t.Errorf("recall collapsed from %.3f to %.3f with irrelevant records", s.Y[1][0], s.Y[1][4])
	}
	if !strings.Contains(buf.String(), "Figure 6(a)") {
		t.Error("missing title")
	}
}

func TestFigure6bLowFalsePositives(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0, 3, 5, 8, 11, 14}
	s := Figure6b(cfg)
	if len(s.X) == 0 {
		t.Fatal("no cases")
	}
	for k := range s.X {
		if s.Y[0][k] > 0.25 {
			t.Errorf("case %d: AutoFJ FPR %.3f too high on unrelated tables", k, s.Y[0][k])
		}
	}
}

func TestFigure6cPrecisionDeclines(t *testing.T) {
	cfg := fastCfg()
	s := Figure6c(cfg)
	if len(s.X) != 4 {
		t.Fatalf("want 4 removal fractions, got %d", len(s.X))
	}
	// Even at 30% removal precision should stay usable (paper: 0.81).
	if s.Y[0][3] < 0.5 {
		t.Errorf("precision at 30%% removal = %.3f", s.Y[0][3])
	}
}

func TestFigure6dBetaSweep(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0, 5}
	s := Figure6d(cfg)
	if len(s.X) != 5 {
		t.Fatalf("want 5 betas, got %d", len(s.X))
	}
	// Quality at beta>=1 should not exceed what beta=4 reaches by much —
	// i.e. the curve flattens. Check recall at beta=1 within 0.15 of beta=4.
	if s.Y[1][2] < s.Y[1][4]-0.15 {
		t.Errorf("recall at beta=1 (%.3f) far below beta=4 (%.3f)", s.Y[1][2], s.Y[1][4])
	}
}

func TestFigure7aPrecisionTracksTau(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0, 3, 5}
	s := Figure7a(cfg)
	if len(s.X) != 6 {
		t.Fatalf("want 6 taus")
	}
	// Recall must not decrease as tau decreases (x ascending = tau asc).
	if s.Y[1][0] < s.Y[1][len(s.X)-1]-1e-9 {
		t.Errorf("recall at tau=0.5 (%.3f) below recall at tau=0.95 (%.3f)",
			s.Y[1][0], s.Y[1][len(s.X)-1])
	}
}

func TestFigure7bBuckets(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0, 1, 3, 5, 7}
	s := Figure7b(cfg)
	if len(s.X) == 0 || len(s.Labels) == 0 {
		t.Fatal("empty timing series")
	}
	found := false
	for _, l := range s.Labels {
		if l == "AutoFJ" {
			found = true
		}
	}
	if !found {
		t.Error("AutoFJ missing from timing comparison")
	}
}

func TestFigure7cSpaceSweep(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0, 5}
	s := Figure7c(cfg)
	if len(s.X) != 4 {
		t.Fatalf("want 4 sizes")
	}
	for k := range s.X {
		if s.Y[0][k] < 0 || s.Y[0][k] > 1 {
			t.Errorf("precision out of range at size %v", s.X[k])
		}
	}
}

func TestFigure7dComponents(t *testing.T) {
	cfg := fastCfg()
	cfg.TaskIDs = []int{0}
	s := Figure7d(cfg)
	if len(s.X) != 4 {
		t.Fatalf("want 4 sizes")
	}
	if len(s.Labels) != 5 || s.Labels[1] != "profile_s" || s.Labels[4] != "total_s" {
		t.Fatalf("labels %v, want blocking, profile, precompute, greedy, total", s.Labels)
	}
	tot := s.Y[4]
	// Components must sum to total, and building representations is one.
	for k := range s.X {
		if s.Y[1][k] <= 0 {
			t.Errorf("no representation-building time at size %v", s.X[k])
		}
		if diff := tot[k] - (s.Y[0][k] + s.Y[1][k] + s.Y[2][k] + s.Y[3][k]); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("components do not sum to total at size %v", s.X[k])
		}
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := Series{
		XLabel: "beta",
		Labels: []string{"precision", "recall"},
		X:      []float64{0.5, 1},
		Y:      [][]float64{{0.9, 0.91}, {0.5, 0.6}},
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "beta,precision,recall\n") {
		t.Errorf("bad header: %q", out)
	}
	if !strings.Contains(out, "0.5,0.900000,0.500000") {
		t.Errorf("bad row: %q", out)
	}
}

func TestMultiColumnTables(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 0.12, Seed: 3, Space: fastCfg().Space, Steps: 10, Out: &buf}
	tasks := Table3(cfg)
	if len(tasks) != 8 {
		t.Fatalf("Table 3 lists %d tasks", len(tasks))
	}
	res := Table4a(cfg)
	if len(res.Rows) != 8 {
		t.Fatalf("Table 4a has %d rows", len(res.Rows))
	}
	if res.Avg["P"] < 0.3 {
		t.Errorf("multi-column avg precision %.3f suspiciously low", res.Avg["P"])
	}
	out := buf.String()
	if !strings.Contains(out, "Columns+Weights") {
		t.Error("table 4a header missing")
	}
	t7 := Table7(cfg)
	if v := t7.Avg["AutoFJ"]; v <= 0 || v > 1 {
		t.Errorf("Table 7 AutoFJ AUC = %f", v)
	}
}

func TestRunMultiTaskSupervised(t *testing.T) {
	cfg := Config{Scale: 0.12, Seed: 9, Space: fastCfg().Space, Steps: 10, Supervised: true}
	cfg = cfg.withDefaults()
	task := multiTasksFor(cfg)[0]
	tr := RunMultiTask(task, cfg)
	for _, m := range SupervisedMethods {
		if _, ok := tr.MethodAR[m]; !ok {
			t.Errorf("supervised method %s missing from multi-column run", m)
		}
	}
}

func TestTable4bRandomColumns(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 5, Space: fastCfg().Space, Steps: 10}
	res := Table4b(cfg)
	if len(res.Names) != 8 {
		t.Fatalf("Table 4b has %d rows", len(res.Names))
	}
	// AutoFJ must be robust: average recall change magnitude small.
	if res.AvgAuto < -0.1 {
		t.Errorf("AutoFJ average ΔR = %.3f (should be ~0)", res.AvgAuto)
	}
}
