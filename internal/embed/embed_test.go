package embed

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/tokenize"
)

func TestEmbedDeterministic(t *testing.T) {
	a := Embed("wisconsin badgers football")
	b := Embed("wisconsin badgers football")
	if a != b {
		t.Error("Embed is not deterministic")
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	f := func(s string) bool {
		v := Embed(s)
		if s == "" {
			return v == Vector{} && v.Unit() == [Dim]float64{}
		}
		if v.Norm() == 0 {
			return false
		}
		var n float64
		for _, x := range v.Unit() {
			n += x * x
		}
		return math.Abs(n-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceIdentityAndRange(t *testing.T) {
	f := func(a, b string) bool {
		d := Distance(a, b)
		if d < 0 || d > 1 || math.IsNaN(d) {
			return false
		}
		return Distance(a, a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return math.Abs(Distance(a, b)-Distance(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimilarStringsCloserThanUnrelated(t *testing.T) {
	base := "2008 wisconsin badgers football team"
	near := "2008 wisconsin badgers football season"
	far := "artificial satellite telemetry module"
	if Distance(base, near) >= Distance(base, far) {
		t.Errorf("embedding does not separate near (%f) from far (%f)",
			Distance(base, near), Distance(base, far))
	}
}

func TestTokenOrderRobustness(t *testing.T) {
	a := "badgers wisconsin football"
	b := "wisconsin badgers football"
	c := "elephant quantum syzygy"
	if Distance(a, b) >= Distance(a, c) {
		t.Errorf("reordered tokens (%f) should be closer than unrelated (%f)",
			Distance(a, b), Distance(a, c))
	}
}

func TestEmptyConventions(t *testing.T) {
	if Distance("", "") != 0 {
		t.Error("two empties should be distance 0")
	}
	if Distance("", "abc") != 1 {
		t.Error("empty vs non-empty should be distance 1")
	}
}

// referenceCounts is the pre-inlining implementation (hash/fnv over
// tokenize.QGrams grams): the signed bucket counts, with the one-hot
// fallback when they all cancel. Embed must equal it.
func referenceCounts(s string) Vector {
	var v Vector
	if s == "" {
		return v
	}
	for _, g := range tokenize.QGrams(s, 3) {
		h := fnv.New64a()
		h.Write([]byte(g))
		sum := h.Sum64()
		if (sum>>32)&1 == 1 {
			v[sum%Dim]--
		} else {
			v[sum%Dim]++
		}
	}
	if v == (Vector{}) {
		h := fnv.New64a()
		h.Write([]byte(s))
		v[h.Sum64()%Dim] = 1
	}
	return v
}

// referenceUnit is the float64 vector embeddings were stored as before
// they were kept as integer counts: the counts over their norm, both
// accumulated in float64. Unit must equal it bit for bit.
func referenceUnit(v Vector) [Dim]float64 {
	var u [Dim]float64
	var norm float64
	for i, x := range v {
		u[i] = float64(x)
		norm += u[i] * u[i]
	}
	if norm == 0 {
		return u
	}
	norm = math.Sqrt(norm)
	for i := range u {
		u[i] /= norm
	}
	return u
}

func TestEmbedMatchesReference(t *testing.T) {
	cases := []string{
		"a", "ab", "abc", "wisconsin badgers", "héllo wörld",
		"日本語テキスト", "x\xffy", "   ", "##", "madison",
	}
	same := func(s string) bool {
		v := Embed(s)
		return v == referenceCounts(s) && v.Unit() == referenceUnit(v)
	}
	for _, s := range cases {
		if !same(s) {
			t.Errorf("Embed(%q) diverged from the hash/fnv reference", s)
		}
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
}

func TestEmbedZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() {
		_ = Embed("wisconsin badgers football 1998")
	}); n != 0 {
		t.Errorf("Embed allocates %v times per call, want 0", n)
	}
}

// TestLanesExact: CosineDistanceLanes gives CosineDistance's bits whatever
// lane width either side is stored in, for counts that fit int8 and for
// counts past int8 and int16, which only wide lanes hold.
func TestLanesExact(t *testing.T) {
	strs := []string{
		"", "a", "wisconsin badgers football", "badgers wisconsin",
		strings.Repeat("a", 300), strings.Repeat("a", 40000), strings.Repeat("ab", 200),
	}
	lanes := func(v *Vector) []Lanes {
		out := []Lanes{v.Lanes()}
		var narrow [Dim]int8
		if Narrow(narrow[:], v[:]) {
			out = append(out, Lanes{Narrow: narrow[:], Norm: NormOf(narrow[:])})
		} else if fits(v) {
			t.Fatalf("Narrow refused counts that fit")
		}
		return out
	}
	for _, a := range strs {
		va := Embed(a)
		if !Valid(va[:]) {
			t.Fatalf("Embed of a %d-byte string is not Valid", len(a))
		}
		for _, b := range strs {
			vb := Embed(b)
			want := CosineDistance(va, vb)
			for _, la := range lanes(&va) {
				for _, lb := range lanes(&vb) {
					if got := CosineDistanceLanes(la, lb); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%d and %d bytes: lanes %v, vectors %v", len(a), len(b), got, want)
					}
				}
			}
		}
	}
	if d := Distance(strings.Repeat("a", 300), strings.Repeat("a", 301)); d <= 0 || d > 1e-4 {
		t.Errorf("runs of 300 and 301 a's are %v apart, want a small positive distance", d)
	}
}

// fits reports whether every count of v fits an int8 lane.
func fits(v *Vector) bool {
	for _, x := range v {
		if x < math.MinInt8 || x > math.MaxInt8 {
			return false
		}
	}
	return true
}

// TestValidBound: Valid accepts counts whose magnitudes sum to the bound,
// where the squared norm still fits an int64, and refuses one more.
func TestValidBound(t *testing.T) {
	var v Vector
	v[0], v[1] = math.MaxInt32, int32(maxMass-math.MaxInt32)
	if !Valid(v[:]) {
		t.Fatal("counts summing to the bound refused")
	}
	if n := NormOf(v[:]); n <= 0 {
		t.Fatalf("squared norm at the bound overflowed: %d", n)
	}
	v[2] = -1
	if Valid(v[:]) {
		t.Fatal("counts past the bound accepted")
	}
}
