package textproc

import (
	"strings"
	"testing"
	"unicode"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/stem"
)

// oracleApply is the per-option pipeline Process replaced, kept as the
// reference every processed string is held to: strings.ToLower, then
// punctuation and symbols to spaces, then a Porter stem per
// whitespace-separated word, then whitespace collapsed.
func oracleApply(o Option, s string) string {
	s = strings.ToLower(s)
	if o == LowerRemovePunct || o == LowerStemRemovePunct {
		var b strings.Builder
		for _, r := range s {
			if unicode.IsPunct(r) || unicode.IsSymbol(r) {
				b.WriteByte(' ')
			} else {
				b.WriteRune(r)
			}
		}
		s = b.String()
	}
	if o == LowerStem || o == LowerStemRemovePunct {
		fields := strings.Fields(s)
		for i, f := range fields {
			fields[i] = string(stem.AppendStem(nil, []byte(f)))
		}
		s = strings.Join(fields, " ")
	}
	return strings.Join(strings.Fields(s), " ")
}

// checkOracle holds Apply, and Process under want, to oracleApply on s
// for every option.
func checkOracle(t *testing.T, s string, want Mask) {
	t.Helper()
	var f Forms
	Process(&f, s, want)
	for _, o := range Options() {
		exp := oracleApply(o, s)
		if got := o.Apply(s); got != exp {
			t.Fatalf("%v.Apply(%q) = %q, want %q", o, s, got, exp)
		}
		if want&o.Mask() == 0 {
			if f[o] != "" {
				t.Fatalf("Process(%q, %b) set unwanted %v to %q", s, want, o, f[o])
			}
		} else if f[o] != exp {
			t.Fatalf("Process(%q, %b) %v = %q, want %q", s, want, o, f[o], exp)
		}
	}
}

// FuzzApply holds every option's output, bit for bit, to the per-option
// oracle: through Apply, and through Process for a subset of the options.
func FuzzApply(f *testing.F) {
	seeds := []string{
		"", "  spaced   out  ", "2008 LSU Tigers!", "ALL-CAPS_PUNCT.",
		"日本語 と English", "\x00\x01控え", strings.Repeat("running ", 40),
		"#", "## #a# b##", "bad \xff\xfe utf8\xc3", "\xe2\x82", "İstanbul İİ",
		"STRASSE ẞ ß", "Σίσυφος ΣΑΣ", "... --- !!! (?) $ €", "a.b-c,d e!!f",
		"connect connected connecting connection connections",
		"generalize generalization generic general", "ponies pony poni",
		"agreed agree agreement", " nbsp\u0085next em",
		"� literal replacement", "Dr.O'Brien-Smith's caresses",
	}
	for _, s := range seeds {
		f.Add(s, uint8(1<<numOptions-1))
	}
	f.Add("Tigers Football Teams", uint8(LowerStemRemovePunct.Mask()))
	f.Fuzz(func(t *testing.T, s string, want uint8) {
		w := Mask(want) & (1<<numOptions - 1)
		checkOracle(t, s, w)
		for _, o := range Options() {
			out := o.Apply(s)
			if strings.Contains(out, "  ") {
				t.Fatalf("%v produced double space on %q", o, s)
			}
			if out != strings.TrimSpace(out) {
				t.Fatalf("%v produced untrimmed output on %q", o, s)
			}
		}
	})
}

// TestProcessShares checks that options with equal strings share one, that
// a string equal to the record is the record itself, and that an empty
// option set costs nothing.
func TestProcessShares(t *testing.T) {
	var f Forms
	Process(&f, "tv 12 ab", 1<<numOptions-1)
	for _, o := range Options() {
		if f[o] != "tv 12 ab" {
			t.Fatalf("%v = %q", o, f[o])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		Process(&f, "tv 12 ab", 1<<numOptions-1)
	})
	if allocs != 0 {
		t.Errorf("Process of a canonical lower-case record allocates %.0f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		Process(&f, "Running, Jumping; Dogs", 1<<numOptions-1)
	})
	if allocs != 1 {
		t.Errorf("Process allocates %.0f times, want 1 (the shared string)", allocs)
	}
	long := strings.Repeat("Running, Jumping; Dogs ", 20)
	if allocs = testing.AllocsPerRun(100, func() { Process(&f, long, 0) }); allocs != 0 || f != (Forms{}) {
		t.Errorf("Process under no option allocates %.0f times and sets %q", allocs, f)
	}
}

// BenchmarkProcess pre-processes the ledger's reference table (benchgen
// task 0 at scale 10) under all four options, one record at a time as the
// table build does.
func BenchmarkProcess(b *testing.B) {
	task := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 10})
	recs := task.LeftKey()
	b.ReportAllocs()
	var f Forms
	for i := 0; i < b.N; i++ {
		for _, s := range recs {
			Process(&f, s, 1<<numOptions-1)
		}
	}
}
