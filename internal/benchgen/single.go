// Package benchgen generates the synthetic fuzzy-join benchmark described
// in README's "Deviations from the paper": 50 single-column entity-type
// tasks standing in for the paper's DBPedia-derived benchmark, and 8
// multi-column tasks standing in for the Magellan benchmark suite. Every task carries exact ground truth
// from synthetic entity ids, just as DBPedia entity-ids provide it in the
// paper. Generation is fully deterministic given (seed, scale).
package benchgen

import (
	"fmt"
	"math/rand"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/metrics"
)

// Options controls benchmark generation.
type Options struct {
	// Seed drives all randomness; tasks are deterministic given Seed.
	Seed int64
	// Scale multiplies the base table sizes (default 1.0). Experiments use
	// smaller scales to keep sweeps fast; the shapes are size-stable.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

// spec defines one single-column entity type.
type spec struct {
	name     string
	template string
	pools    [][]string
	size     int     // base number of entities
	rPerEnt  float64 // expected right records per entity
	missRate float64 // fraction of entities absent from L (present in R)
	profile  Profile
}

// sportsProfile emphasizes token substitution (team→season) and typos.
func sportsProfile() Profile {
	p := DefaultProfile()
	p.TokenSub = 2
	return p
}

// romanProfile mimics the Super-Bowl example: entities that differ by one
// character (roman numerals), with right variations that are mostly token
// adds/drops — edit distance 1 is deliberately unsafe here.
func romanProfile() Profile {
	p := DefaultProfile()
	p.Typo = 0.3
	p.TokenAdd = 2
	p.TokenDrop = 2
	return p
}

// typoProfile is dominated by character noise.
func typoProfile() Profile {
	p := DefaultProfile()
	p.Typo = 3
	p.Reorder = 0.2
	return p
}

var singleSpecs = []spec{
	{"NCAATeamSeason", "%s %s %s %s team", [][]string{years, places, mascots, sports}, 700, 0.15, 0.1, sportsProfile()},
	{"SuperBowlGame", "super bowl %s", [][]string{romanNumerals}, 30, 0.8, 0.05, romanProfile()},
	{"PoliticalParty", "%s %s party of %s", [][]string{adjectives, ideologies, countries}, 600, 0.25, 0.1, DefaultProfile()},
	{"Stadium", "%s %s stadium", [][]string{cityWords, surnames}, 550, 0.3, 0.12, DefaultProfile()},
	{"Song", "%s %s (%s song)", [][]string{adjectives, nouns, genres}, 600, 0.3, 0.1, typoProfile()},
	{"Amphibian", "%s %s", [][]string{animalSpecies, latinish}, 400, 0.35, 0.08, typoProfile()},
	{"ArtificialSatellite", "%s %s", [][]string{satWords, years}, 500, 0.1, 0.15, typoProfile()},
	{"Artwork", "portrait of %s %s", [][]string{givenNames, surnames}, 500, 0.3, 0.1, DefaultProfile()},
	{"Award", "%s %s in %s", [][]string{surnames, awardWords, fields}, 550, 0.25, 0.1, DefaultProfile()},
	{"BasketballTeam", "%s %s basketball", [][]string{cityWords, mascots}, 300, 0.4, 0.1, sportsProfile()},
	{"Case", "%s v %s %s", [][]string{surnames, surnames, years}, 500, 0.35, 0.08, DefaultProfile()},
	{"ChristianBishop", "%s %s bishop of %s", [][]string{givenNames, surnames, cityWords}, 600, 0.25, 0.1, DefaultProfile()},
	{"Car", "%s %s %s", [][]string{years, satWords, romanNumerals}, 500, 0.2, 0.12, typoProfile()},
	{"Country", "%s republic of %s", [][]string{adjectives, countries}, 350, 0.3, 0.1, DefaultProfile()},
	{"Device", "%s %s %s device", [][]string{adjectives, chemPrefixes, romanNumerals}, 650, 0.3, 0.1, typoProfile()},
	{"Drug", "%s%s", [][]string{chemPrefixes, chemSuffixes}, 240, 0.25, 0.12, typoProfile()},
	{"Election", "%s %s general election", [][]string{years, countries}, 650, 0.3, 0.08, sportsProfile()},
	{"Enzyme", "%s %s %s", [][]string{chemPrefixes, chemSuffixes, latinish}, 500, 0.1, 0.15, typoProfile()},
	{"EthnicGroup", "%s people of %s", [][]string{ideologies, countries}, 450, 0.45, 0.08, DefaultProfile()},
	{"FootballLeagueSeason", "%s %s league %s", [][]string{years, countries, sports}, 550, 0.2, 0.1, sportsProfile()},
	{"FootballMatch", "%s %s derby %s", [][]string{years, cityWords, romanNumerals}, 400, 0.1, 0.12, romanProfile()},
	{"Galaxy", "%s galaxy %s", [][]string{satWords, romanNumerals}, 180, 0.12, 0.15, typoProfile()},
	{"GivenName", "%s (%s name)", [][]string{givenNames, countries}, 450, 0.15, 0.1, typoProfile()},
	{"GovernmentAgency", "%s %s of %s", [][]string{adjectives, orgWords, countries}, 550, 0.3, 0.1, DefaultProfile()},
	{"HistoricBuilding", "%s %s %s", [][]string{surnames, buildingWords, cityWords}, 600, 0.25, 0.1, DefaultProfile()},
	{"Hospital", "%s %s hospital", [][]string{cityWords, orgWords}, 450, 0.25, 0.12, DefaultProfile()},
	{"Legislature", "%s assembly of %s", [][]string{adjectives, countries}, 350, 0.35, 0.08, DefaultProfile()},
	{"Magazine", "%s %s magazine", [][]string{adjectives, fields}, 450, 0.2, 0.1, DefaultProfile()},
	{"MemberOfParliament", "%s %s mp", [][]string{givenNames, surnames}, 650, 0.25, 0.08, DefaultProfile()},
	{"Monarch", "%s %s of %s", [][]string{givenNames, romanNumerals, countries}, 450, 0.25, 0.1, DefaultProfile()},
	{"MotorsportSeason", "%s %s grand prix", [][]string{years, countries}, 400, 0.4, 0.05, sportsProfile()},
	{"Museum", "%s museum of %s", [][]string{cityWords, fields}, 500, 0.25, 0.1, DefaultProfile()},
	{"NFLSeason", "%s %s nfl season", [][]string{years, cityWords}, 350, 0.08, 0.1, sportsProfile()},
	{"NaturalEvent", "%s %s earthquake", [][]string{years, countries}, 300, 0.15, 0.12, DefaultProfile()},
	{"Noble", "%s duke of %s", [][]string{givenNames, cityWords}, 500, 0.3, 0.1, DefaultProfile()},
	{"Race", "%s %s marathon", [][]string{years, cityWords}, 450, 0.2, 0.1, sportsProfile()},
	{"RailwayLine", "%s %s railway line", [][]string{cityWords, streetWords}, 400, 0.3, 0.1, DefaultProfile()},
	{"Reptile", "%s %s %s", [][]string{latinish, animalSpecies, romanNumerals}, 350, 0.7, 0.05, typoProfile()},
	{"RugbyLeague", "%s rugby %s", [][]string{countries, orgWords}, 250, 0.2, 0.12, DefaultProfile()},
	{"ShoppingMall", "%s %s mall", [][]string{cityWords, streetWords}, 200, 0.6, 0.08, DefaultProfile()},
	{"SoccerClubSeason", "%s %s fc season", [][]string{years, cityWords}, 400, 0.12, 0.1, sportsProfile()},
	{"SoccerLeague", "%s %s division %s", [][]string{countries, sports, romanNumerals}, 400, 0.3, 0.1, DefaultProfile()},
	{"SoccerTournament", "%s %s cup", [][]string{years, countries}, 500, 0.25, 0.08, sportsProfile()},
	{"SportFacility", "%s %s %s arena", [][]string{cityWords, surnames, streetWords}, 650, 0.3, 0.1, DefaultProfile()},
	{"SportsLeague", "%s %s league of %s", [][]string{adjectives, sports, countries}, 500, 0.35, 0.1, DefaultProfile()},
	{"TelevisionStation", "%s tv %s", [][]string{cityWords, romanNumerals}, 600, 0.4, 0.1, typoProfile()},
	{"TennisTournament", "%s %s open", [][]string{years, cityWords}, 250, 0.12, 0.12, sportsProfile()},
	{"Tournament", "%s %s %s championship", [][]string{years, countries, sports}, 600, 0.25, 0.1, sportsProfile()},
	{"Venue", "%s %s theatre", [][]string{cityWords, surnames}, 550, 0.25, 0.1, DefaultProfile()},
	{"Wrestler", "%s %s (wrestler)", [][]string{givenNames, surnames}, 550, 0.3, 0.1, typoProfile()},
}

// NumSingleColumnTasks is the number of single-column benchmark tasks (50,
// matching the paper's benchmark).
func NumSingleColumnTasks() int { return len(singleSpecs) }

// SingleColumnTaskName returns the entity-type name of task idx.
func SingleColumnTaskName(idx int) string { return singleSpecs[idx].name }

// SingleColumnTask generates single-column task idx (0-based).
func SingleColumnTask(idx int, opt Options) dataset.Task {
	opt = opt.withDefaults()
	sp := singleSpecs[idx%len(singleSpecs)]
	rng := rand.New(rand.NewSource(opt.Seed*7919 + int64(idx) + 1))
	names := uniqueNames(rng, sp, int(float64(sp.size)*opt.Scale))
	return assembleTask(rng, sp.name, names, sp.profile, sp.rPerEnt, sp.missRate)
}

// uniqueNames produces n distinct entity names for the spec by mixed-radix
// enumeration over independently shuffled pool copies, which guarantees
// uniqueness (the reference-table property) while looking non-grid-like.
func uniqueNames(rng *rand.Rand, sp spec, n int) []string {
	product := 1
	shuffled := make([][]string, len(sp.pools))
	for i, p := range sp.pools {
		cp := make([]string, len(p))
		copy(cp, p)
		rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
		shuffled[i] = cp
		if product < 1<<30/len(cp) {
			product *= len(cp)
		}
	}
	if n > product {
		n = product
	}
	if n < 8 {
		n = minInt(8, product)
	}
	// Visit combination indexes with a stride co-prime to the product so
	// consecutive entities differ in several components.
	stride := product/3 + 1
	for gcd(stride, product) != 1 {
		stride++
	}
	names := make([]string, 0, n)
	seen := make(map[string]bool, n)
	at := rng.Intn(product)
	args := make([]interface{}, len(shuffled))
	for len(names) < n {
		x := at
		for i, pool := range shuffled {
			args[i] = pool[x%len(pool)]
			x /= len(pool)
		}
		name := fmt.Sprintf(sp.template, args...)
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
		at = (at + stride) % product
	}
	return names
}

// assembleTask builds the L/R tables: a fraction of entities is removed
// from L (but still queried from R, unmatched), each entity spawns a
// geometric number of perturbed right records, and equi-joins are excluded.
func assembleTask(rng *rand.Rand, name string, names []string, prof Profile, rPerEnt, missRate float64) dataset.Task {
	type rrec struct {
		s      string
		entity int
	}
	inL := make([]bool, len(names))
	lIndex := make([]int, len(names))
	var left []string
	for i := range names {
		if rng.Float64() >= missRate {
			inL[i] = true
			lIndex[i] = len(left)
			left = append(left, names[i])
		}
	}
	var rrecs []rrec
	for i, base := range names {
		k := 0
		// Bernoulli(rPerEnt) base draw with a geometric tail, so several
		// right records can map to the same left record (many-to-one).
		if rng.Float64() < rPerEnt {
			k = 1
			for k < 4 && rng.Float64() < 0.3 {
				k++
			}
		}
		if !inL[i] && k == 0 && rng.Float64() < 0.5 {
			k = 1 // ensure some unmatched right records exist
		}
		for c := 0; c < k; c++ {
			if v := prof.Apply(rng, base); v != "" {
				rrecs = append(rrecs, rrec{v, i})
			}
		}
	}
	rng.Shuffle(len(rrecs), func(a, b int) { rrecs[a], rrecs[b] = rrecs[b], rrecs[a] })
	right := make([]string, len(rrecs))
	truth := metrics.Truth{}
	for j, rr := range rrecs {
		right[j] = rr.s
		if inL[rr.entity] {
			truth[j] = lIndex[rr.entity]
		}
	}
	return dataset.Task{
		Name:  name,
		Left:  dataset.SingleColumn("name", left),
		Right: dataset.SingleColumn("name", right),
		Truth: truth,
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
