package stem

import (
	"testing"
	"testing/quick"
)

// Stem returns the Porter stem of word.
func Stem(word string) string { return string(AppendStem(nil, []byte(word))) }

func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"hesitanci":    "hesit",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"teams":        "team",
		"seasons":      "season",
		"baseball":     "basebal",
		"football":     "footbal",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonLetter(t *testing.T) {
	for _, w := range []string{"", "a", "is", "2008", "lsu", "a1b"} {
		got := Stem(w)
		if len(w) <= 2 && got != w {
			t.Errorf("Stem(%q) changed a short word to %q", w, got)
		}
	}
	if got := Stem("2008"); got != "2008" {
		t.Errorf("Stem(2008) = %q, want unchanged", got)
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem of common English words should be stable for most
	// inputs we care about (team names, sports, etc.).
	// Note: Porter is famously not idempotent on every word (e.g.
	// "baseball" -> "basebal" -> "baseb"); we only require stability on
	// the vocabulary classes the join pipeline cares about.
	words := []string{"teams", "tigers", "badgers", "wisconsin",
		"seasons", "games", "elections", "parties", "stations"}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		if s1 != s2 {
			t.Errorf("Stem not stable on %q: %q -> %q", w, s1, s2)
		}
	}
}

func TestStemNeverPanicsAndShrinks(t *testing.T) {
	f := func(s string) bool {
		out := Stem(s)
		return len(out) <= len(s)+1 // step1b can append 'e', never more
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
