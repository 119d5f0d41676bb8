package benchgen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// colSpec defines one column of a multi-column benchmark domain.
type colSpec struct {
	name string
	// gen produces the left-table value for an entity from its private rng.
	gen func(rng *rand.Rand) string
	// perturb, when non-nil, is applied to produce the right-table value;
	// nil copies the left value verbatim.
	perturb *Profile
	// missRate is the probability the right-table cell is empty.
	missRate float64
	// noise regenerates the right value independently of the left one —
	// such a column carries no join signal (like free-text descriptions).
	noise bool
}

// multiSpec defines one multi-column benchmark domain, shaped after the
// Magellan suite tasks of Table 3.
type multiSpec struct {
	name   string
	domain string
	nLeft  int
	nRight int
	cols   []colSpec
}

func words(rng *rand.Rand, pool []string, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = pool[rng.Intn(len(pool))]
	}
	return strings.Join(parts, " ")
}

func digits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

func person(rng *rand.Rand) string {
	return givenNames[rng.Intn(len(givenNames))] + " " + surnames[rng.Intn(len(surnames))]
}

func lightProfile() *Profile {
	p := DefaultProfile()
	p.TokenAdd = 0.3
	p.Reorder = 0.8
	return &p
}

func namePerturb() *Profile {
	p := DefaultProfile()
	return &p
}

var cuisines = []string{"italian", "french", "thai", "mexican", "japanese",
	"indian", "greek", "korean", "spanish", "ethiopian", "vietnamese", "bbq"}

var beerStyles = []string{"ipa", "stout", "porter", "lager", "pilsner",
	"saison", "witbier", "amber ale", "pale ale", "dubbel"}

var publishers = []string{"north hill press", "meridian books", "clearwater",
	"stonegate publishing", "bluefield house", "harbor lane press"}

var multiSpecs = []multiSpec{
	{
		name: "FZ", domain: "Restaurant", nLeft: 180, nRight: 110,
		cols: []colSpec{
			{name: "name", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%s's %s %s", surnames[r.Intn(len(surnames))], nouns[r.Intn(len(nouns))], cuisines[r.Intn(len(cuisines))])
			}, perturb: namePerturb()},
			{name: "addr", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%d %s st", 1+r.Intn(999), streetWords[r.Intn(len(streetWords))])
			}, perturb: lightProfile(), missRate: 0.05},
			{name: "city", gen: func(r *rand.Rand) string {
				return cityWords[r.Intn(len(cityWords))]
			}, perturb: nil, missRate: 0.05},
			{name: "phone", gen: func(r *rand.Rand) string {
				return digits(r, 3) + "-" + digits(r, 3) + "-" + digits(r, 4)
			}, perturb: nil},
			{name: "type", gen: func(r *rand.Rand) string {
				return cuisines[r.Intn(len(cuisines))]
			}, perturb: nil, missRate: 0.1},
			{name: "class", gen: func(r *rand.Rand) string {
				return itoa(r.Intn(600))
			}, perturb: nil},
		},
	},
	{
		name: "DA", domain: "Citation", nLeft: 300, nRight: 260,
		cols: []colSpec{
			{name: "title", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%s %s for %s %s", adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))], fields[r.Intn(len(fields))], orgWords[r.Intn(len(orgWords))])
			}, perturb: namePerturb()},
			{name: "authors", gen: func(r *rand.Rand) string {
				return person(r) + ", " + person(r)
			}, perturb: lightProfile(), missRate: 0.05},
			{name: "venue", gen: func(r *rand.Rand) string {
				return "proc " + fields[r.Intn(len(fields))] + " conf"
			}, perturb: lightProfile(), missRate: 0.1},
			{name: "year", gen: func(r *rand.Rand) string {
				return years[30+r.Intn(len(years)-30)]
			}, perturb: nil},
		},
	},
	{
		name: "AB", domain: "Product", nLeft: 220, nRight: 200,
		cols: []colSpec{
			{name: "name", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%s %s%s %s", satWords[r.Intn(len(satWords))], strings.ToUpper(digits(r, 1)), digits(r, 3), nouns[r.Intn(len(nouns))])
			}, perturb: namePerturb()},
			{name: "description", gen: func(r *rand.Rand) string {
				return words(r, append(append([]string{}, adjectives...), nouns...), 10)
			}, perturb: nil, noise: true, missRate: 0.1},
			{name: "price", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%d.%s", 5+r.Intn(500), digits(r, 2))
			}, perturb: nil, missRate: 0.2, noise: true},
		},
	},
	{
		name: "RI", domain: "Movie", nLeft: 400, nRight: 120,
		cols: []colSpec{
			{name: "name", gen: func(r *rand.Rand) string {
				return "the " + adjectives[r.Intn(len(adjectives))] + " " + nouns[r.Intn(len(nouns))] + " " + romanNumerals[r.Intn(len(romanNumerals))]
			}, perturb: namePerturb()},
			{name: "year", gen: func(r *rand.Rand) string { return years[30+r.Intn(36)] }, perturb: nil, missRate: 0.05},
			{name: "director", gen: person, perturb: lightProfile()},
			{name: "creators", gen: func(r *rand.Rand) string { return person(r) + "; " + person(r) }, perturb: lightProfile(), missRate: 0.1},
			{name: "cast", gen: func(r *rand.Rand) string {
				return person(r) + "; " + person(r) + "; " + person(r)
			}, perturb: lightProfile(), missRate: 0.1},
			{name: "genre", gen: func(r *rand.Rand) string { return genres[r.Intn(len(genres))] }, perturb: nil},
			{name: "duration", gen: func(r *rand.Rand) string { return itoa(80+r.Intn(100)) + " min" }, perturb: nil, missRate: 0.1},
			{name: "rating", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d.%d", 1+r.Intn(9), r.Intn(10)) }, perturb: nil, noise: true},
			{name: "votes", gen: func(r *rand.Rand) string { return digits(r, 5) }, perturb: nil, noise: true},
			{name: "description", gen: func(r *rand.Rand) string {
				return words(r, append(append([]string{}, nouns...), adjectives...), 14)
			}, perturb: nil, noise: true, missRate: 0.1},
		},
	},
	{
		name: "BR", domain: "Beer", nLeft: 350, nRight: 90,
		cols: []colSpec{
			{name: "beer_name", gen: func(r *rand.Rand) string {
				return adjectives[r.Intn(len(adjectives))] + " " + nouns[r.Intn(len(nouns))] + " " + beerStyles[r.Intn(len(beerStyles))]
			}, perturb: namePerturb()},
			{name: "factory_name", gen: func(r *rand.Rand) string {
				return cityWords[r.Intn(len(cityWords))] + " brewing company"
			}, perturb: lightProfile(), missRate: 0.05},
			{name: "style", gen: func(r *rand.Rand) string { return beerStyles[r.Intn(len(beerStyles))] }, perturb: nil},
			{name: "abv", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d.%d%%", 3+r.Intn(9), r.Intn(10)) }, perturb: nil, missRate: 0.15},
		},
	},
	{
		name: "ABN", domain: "Book", nLeft: 320, nRight: 130,
		cols: []colSpec{
			{name: "title", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("the %s of the %s %s", nouns[r.Intn(len(nouns))], adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))])
			}, perturb: namePerturb()},
			{name: "authors", gen: person, perturb: lightProfile(), missRate: 0.05},
			{name: "pubyear", gen: func(r *rand.Rand) string { return years[40+r.Intn(26)] }, perturb: nil},
			{name: "publisher", gen: func(r *rand.Rand) string { return publishers[r.Intn(len(publishers))] }, perturb: nil, missRate: 0.1},
			{name: "pages", gen: func(r *rand.Rand) string { return itoa(90 + r.Intn(900)) }, perturb: nil},
			{name: "isbn", gen: func(r *rand.Rand) string { return "978" + digits(r, 10) }, perturb: nil, missRate: 0.3},
			{name: "language", gen: func(r *rand.Rand) string { return "english" }, perturb: nil},
			{name: "edition", gen: func(r *rand.Rand) string { return itoa(1+r.Intn(5)) + "ed" }, perturb: nil, missRate: 0.4},
			{name: "price", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d.%s", 5+r.Intn(80), digits(r, 2)) }, perturb: nil, noise: true},
			{name: "binding", gen: func(r *rand.Rand) string {
				if r.Intn(2) == 0 {
					return "paperback"
				}
				return "hardcover"
			}, perturb: nil},
			{name: "description", gen: func(r *rand.Rand) string {
				return words(r, append(append([]string{}, nouns...), fields...), 12)
			}, perturb: nil, noise: true, missRate: 0.2},
		},
	},
	{
		name: "IA", domain: "Music", nLeft: 380, nRight: 140,
		cols: []colSpec{
			{name: "song_name", gen: func(r *rand.Rand) string {
				return adjectives[r.Intn(len(adjectives))] + " " + nouns[r.Intn(len(nouns))] + " " + instruments[r.Intn(len(instruments))]
			}, perturb: namePerturb()},
			{name: "artist", gen: person, perturb: lightProfile(), missRate: 0.05},
			{name: "album", gen: func(r *rand.Rand) string {
				return "the " + nouns[r.Intn(len(nouns))] + " sessions"
			}, perturb: lightProfile(), missRate: 0.1},
			{name: "genre", gen: func(r *rand.Rand) string { return genres[r.Intn(len(genres))] }, perturb: nil},
			{name: "price", gen: func(r *rand.Rand) string { return fmt.Sprintf("0.%s", digits(r, 2)) }, perturb: nil, noise: true},
			{name: "copyright", gen: func(r *rand.Rand) string { return years[45+r.Intn(21)] + " records" }, perturb: nil, missRate: 0.2},
			{name: "time", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d:%s", 2+r.Intn(5), digits(r, 2)) }, perturb: nil},
			{name: "released", gen: func(r *rand.Rand) string { return years[45+r.Intn(21)] }, perturb: nil, missRate: 0.1},
		},
	},
	{
		name: "BB", domain: "Baby Product", nLeft: 420, nRight: 100,
		cols: []colSpec{
			{name: "title", gen: func(r *rand.Rand) string {
				return fmt.Sprintf("%s %s %s %s", satWords[r.Intn(len(satWords))], adjectives[r.Intn(len(adjectives))], nouns[r.Intn(len(nouns))], instruments[r.Intn(len(instruments))])
			}, perturb: namePerturb()},
			{name: "company_struct", gen: func(r *rand.Rand) string {
				return surnames[r.Intn(len(surnames))] + " kids co"
			}, perturb: lightProfile(), missRate: 0.1},
			{name: "brand", gen: func(r *rand.Rand) string { return satWords[r.Intn(len(satWords))] }, perturb: nil, missRate: 0.2},
			{name: "weight", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d.%d lbs", r.Intn(20), r.Intn(10)) }, perturb: nil, missRate: 0.3},
			{name: "length", gen: func(r *rand.Rand) string { return itoa(5+r.Intn(40)) + " in" }, perturb: nil, missRate: 0.3},
			{name: "width", gen: func(r *rand.Rand) string { return itoa(3+r.Intn(30)) + " in" }, perturb: nil, missRate: 0.3},
			{name: "height", gen: func(r *rand.Rand) string { return itoa(3+r.Intn(50)) + " in" }, perturb: nil, missRate: 0.3},
			{name: "fabric", gen: func(r *rand.Rand) string { return "cotton" }, perturb: nil, missRate: 0.4},
			{name: "color", gen: func(r *rand.Rand) string { return adjectives[r.Intn(len(adjectives))] }, perturb: nil, missRate: 0.2},
			{name: "materials", gen: func(r *rand.Rand) string { return "plastic" }, perturb: nil, missRate: 0.4},
			{name: "target_gender", gen: func(r *rand.Rand) string { return "unisex" }, perturb: nil, missRate: 0.2},
			{name: "category", gen: func(r *rand.Rand) string { return nouns[r.Intn(len(nouns))] }, perturb: nil, missRate: 0.1},
			{name: "company_free", gen: func(r *rand.Rand) string { return words(r, surnames, 2) }, perturb: nil, noise: true, missRate: 0.3},
			{name: "price", gen: func(r *rand.Rand) string { return fmt.Sprintf("%d.99", 5+r.Intn(200)) }, perturb: nil, noise: true},
			{name: "is_discounted", gen: func(r *rand.Rand) string { return "0" }, perturb: nil},
			{name: "desc", gen: func(r *rand.Rand) string {
				return words(r, append(append([]string{}, adjectives...), nouns...), 16)
			}, perturb: nil, noise: true, missRate: 0.2},
		},
	},
}

// NumMultiColumnTasks is the number of multi-column benchmark tasks (8).
func NumMultiColumnTasks() int { return len(multiSpecs) }

// MultiColumnTaskName returns the short name of multi-column task idx.
func MultiColumnTaskName(idx int) string { return multiSpecs[idx].name }

// MultiColumnTask generates multi-column task idx (0-based).
func MultiColumnTask(idx int, opt Options) dataset.Task {
	opt = opt.withDefaults()
	sp := multiSpecs[idx%len(multiSpecs)]
	rng := rand.New(rand.NewSource(opt.Seed*104729 + int64(idx) + 17))
	nL := int(float64(sp.nLeft) * opt.Scale)
	if nL < 20 {
		nL = 20
	}
	nR := int(float64(sp.nRight) * opt.Scale)
	if nR < 10 {
		nR = 10
	}

	colNames := make([]string, len(sp.cols))
	for j, c := range sp.cols {
		colNames[j] = c.name
	}
	// Left rows, with a uniqueness guard on the first (key-ish) column.
	leftRows := make([][]string, 0, nL)
	seen := map[string]bool{}
	for len(leftRows) < nL {
		row := make([]string, len(sp.cols))
		for j, c := range sp.cols {
			row[j] = c.gen(rng)
		}
		if seen[row[0]] {
			continue
		}
		seen[row[0]] = true
		leftRows = append(leftRows, row)
	}

	// Right rows: ~85% reference a left entity (with per-column
	// perturbation and missing values), the rest are fresh unmatched rows.
	rightRows := make([][]string, 0, nR)
	truth := metrics.Truth{}
	for len(rightRows) < nR {
		j := len(rightRows)
		row := make([]string, len(sp.cols))
		if rng.Float64() < 0.85 {
			src := rng.Intn(len(leftRows))
			for cj, c := range sp.cols {
				switch {
				case rng.Float64() < c.missRate:
					row[cj] = ""
				case c.noise:
					row[cj] = c.gen(rng)
				case c.perturb != nil && rng.Float64() < 0.7:
					if v := c.perturb.Apply(rng, leftRows[src][cj]); v != "" {
						row[cj] = v
					} else {
						row[cj] = leftRows[src][cj]
					}
				default:
					row[cj] = leftRows[src][cj]
				}
			}
			// The benchmark removes equi-joins: force a perturbation of
			// the key column when the whole row came through unchanged.
			if row[0] == leftRows[src][0] {
				if v := sp.cols[0].perturb.Apply(rng, row[0]); v != "" {
					row[0] = v
				}
			}
			truth[j] = src
		} else {
			for cj, c := range sp.cols {
				if rng.Float64() < c.missRate {
					row[cj] = ""
					continue
				}
				row[cj] = c.gen(rng)
			}
		}
		rightRows = append(rightRows, row)
	}

	return dataset.Task{
		Name:  sp.name + " (" + sp.domain + ")",
		Left:  dataset.Table{Columns: colNames, Rows: leftRows},
		Right: dataset.Table{Columns: colNames, Rows: rightRows},
		Truth: truth,
	}
}
