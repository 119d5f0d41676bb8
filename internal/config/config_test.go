package config

import (
	"math"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/textproc"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/weights"
)

func TestSpaceSize(t *testing.T) {
	s := Space()
	if len(s) != 140 {
		t.Fatalf("Space() has %d functions, want 140 (Table 1)", len(s))
	}
	names := map[string]bool{}
	for _, f := range s {
		if names[f.Name()] {
			t.Errorf("duplicate join function %q", f.Name())
		}
		names[f.Name()] = true
	}
}

func TestExtendedSpaceSize(t *testing.T) {
	s := ExtendedSpace()
	if len(s) != 148 {
		t.Fatalf("ExtendedSpace() has %d functions, want 148", len(s))
	}
	// The extension distances must be present and well-classed.
	found := map[Distance]bool{}
	for _, f := range s {
		found[f.Dist] = true
	}
	if !found[ME] || !found[SW] {
		t.Error("extension distances missing from ExtendedSpace")
	}
	if ME.Class() != CharBased || SW.Class() != CharBased {
		t.Error("extension distances misclassified")
	}
	if ME.String() != "ME" || SW.String() != "SW" {
		t.Error("extension distance names wrong")
	}
}

func TestExtendedSpaceDistances(t *testing.T) {
	space := ExtendedSpace()
	c := NewCorpus(space, []string{"alpha beta"}, []string{"beta alpha"})
	l := c.Profile("alpha beta")
	r := c.Profile("beta alpfa")
	for _, f := range space {
		if f.Dist != ME && f.Dist != SW {
			continue
		}
		d := f.Distance(l, r)
		if d < 0 || d > 1 || math.IsNaN(d) {
			t.Fatalf("%s out of range: %v", f.Name(), d)
		}
	}
}

func TestReducedSpaceSize(t *testing.T) {
	s := ReducedSpace()
	if len(s) != 24 {
		t.Fatalf("ReducedSpace() has %d functions, want 24 (Table 6)", len(s))
	}
}

func TestSpaceOfSize(t *testing.T) {
	for _, n := range []int{1, 24, 48, 96, 140, 500} {
		s := SpaceOfSize(n)
		want := n
		if want > 140 {
			want = 140
		}
		if len(s) != want {
			t.Errorf("SpaceOfSize(%d) = %d functions, want %d", n, len(s), want)
		}
	}
}

func TestSpaceOfSizeNestedForDoublingChain(t *testing.T) {
	// The figure-7c sweep relies on nested subsets for 24 ⊂ 48 ⊂ 96.
	names := func(fs []JoinFunction) map[string]bool {
		m := map[string]bool{}
		for _, f := range fs {
			m[f.Name()] = true
		}
		return m
	}
	chain := [][]JoinFunction{SpaceOfSize(24), SpaceOfSize(48), SpaceOfSize(96), SpaceOfSize(140)}
	for i := 1; i < len(chain); i++ {
		big := names(chain[i])
		for _, f := range chain[i-1] {
			if !big[f.Name()] {
				t.Fatalf("size %d missing %s from size %d", len(chain[i]), f.Name(), len(chain[i-1]))
			}
		}
	}
}

func TestDistanceClasses(t *testing.T) {
	if ED.Class() != CharBased || JW.Class() != CharBased {
		t.Error("ED/JW should be char-based")
	}
	if GED.Class() != EmbeddingBased {
		t.Error("GED should be embedding-based")
	}
	for _, d := range []Distance{JD, CD, DD, MD, ID, CJD, CCD, CDD} {
		if d.Class() != SetBased {
			t.Errorf("%s should be set-based", d)
		}
	}
}

func TestProfileDistances(t *testing.T) {
	space := Space()
	L := []string{"2008 lsu tigers football team", "2008 lsu tigers baseball team"}
	R := []string{"2008 LSU Tigers Football", "2008 lsu tigers swimming team"}
	c := NewCorpus(space, L, R)
	lp := c.Profiles(L, 1)
	rp := c.Profiles(R, 1)

	for _, f := range space {
		for _, l := range lp {
			for _, r := range rp {
				d := f.Distance(l, r)
				if d < 0 || d > 1 || math.IsNaN(d) {
					t.Fatalf("%s distance out of range: %v", f.Name(), d)
				}
				if self := f.Distance(l, l); self > 1e-9 {
					t.Fatalf("%s self-distance %v != 0", f.Name(), self)
				}
			}
		}
	}
}

func TestJaccardMatchesExampleFromPaper(t *testing.T) {
	// Example 2.1: f = (L, SP, EW, JD) on strings sharing 4 of 5 tokens
	// should give Jaccard distance 1 - 4/6 = 1/3; the paper's 0.2 example
	// has 8/10 overlap. We verify the machinery on a known overlap.
	f := JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: JD}
	c := NewCorpus([]JoinFunction{f}, nil)
	l := c.Profile("North Carolina Tar Heels Football")
	r := c.Profile("North Carolina Tar Heels Basketball")
	got := f.Distance(l, r)
	want := 1 - 4.0/6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("JD = %f, want %f", got, want)
	}
}

func TestDirectionalContainment(t *testing.T) {
	f := JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: CJD}
	c := NewCorpus([]JoinFunction{f}, nil)
	l := c.Profile("super bowl xlvii champions")
	rContained := c.Profile("super bowl")
	rNot := c.Profile("super bowl 2013")
	if d := f.Distance(l, rContained); d >= 1 {
		t.Errorf("contained r should score < 1, got %f", d)
	}
	if d := f.Distance(l, rNot); d != 1 {
		t.Errorf("non-contained r should score 1, got %f", d)
	}
}

func TestCorpusOnlyBuildsWhatIsNeeded(t *testing.T) {
	f := JoinFunction{Pre: textproc.Lower, Dist: ED}
	c := NewCorpus([]JoinFunction{f}, []string{"abc"})
	if c.Stats(textproc.Lower, tokenize.Space) != nil {
		t.Error("ED-only space should not build IDF stats")
	}
	p := c.Profile("ABC def")
	if p.Processed(textproc.Lower) != "abc def" {
		t.Errorf("Processed = %q", p.Processed(textproc.Lower))
	}
}

func TestIDFWeightingChangesDistances(t *testing.T) {
	ew := JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.Equal, Dist: JD}
	idf := JoinFunction{Pre: textproc.Lower, Tok: tokenize.Space, Weight: weights.IDF, Dist: JD}
	corpus := []string{
		"alpha team", "beta team", "gamma team", "delta team", "epsilon squad",
	}
	c := NewCorpus([]JoinFunction{ew, idf}, corpus)
	l := c.Profile("alpha team")
	r := c.Profile("beta team")
	dEW := ew.Distance(l, r)
	dIDF := idf.Distance(l, r)
	// "team" is common, so under IDF the shared token is worth less and the
	// distance must be larger than under equal weights.
	if !(dIDF > dEW) {
		t.Errorf("IDF distance %f should exceed EW distance %f", dIDF, dEW)
	}
}
