package core

import (
	"sort"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// SelfJoin finds fuzzy duplicates within a single table: the table plays
// both the reference and the query role, with identity pairs excluded.
// This is the unsupervised deduplication extension the paper's footnote 7
// anticipates: when the "reference" side itself contains duplicates the
// precision estimates become conservative (a record's duplicates inflate
// its 2θ-ball), so the output errs toward high precision.
func SelfJoin(records []string, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(records) < 2 {
		return &Result{}, nil
	}

	// Negative rules are intentionally NOT learned here: Algorithm 2
	// assumes the reference table is duplicate-free, but a self-join's
	// whole premise is that the table contains duplicates — a duplicate
	// pair differing by one word ("northern" vs a "nothern" typo) would be
	// learned as a negative rule and veto exactly the join we want. The
	// records' representations are built while blocking runs.
	var cand [][]int32
	var learned *config.ProfileArena
	var blockingTime, profileTime time.Duration
	beside(opt.Parallelism, func() {
		tProf := time.Now()
		learned = config.LearnProfiles(opt.Space, opt.Parallelism, records)
		profileTime = time.Since(tProf)
	}, func() {
		tBlock := time.Now()
		cand = blockCandidates(records, nil, opt, false).llCand
		blockingTime = time.Since(tBlock)
	})
	in := &engineInput{
		space:    opt.Space,
		steps:    opt.ThresholdSteps,
		nL:       len(records),
		nR:       len(records),
		lrCand:   cand,
		llCand:   cand,
		newEval:  idPairs(opt.Space, learned, 0, cand, cand),
		selfJoin: true,
	}
	res := run(in, opt)
	res.BlockingBeta = opt.BlockingBeta
	res.Timing.Blocking = blockingTime
	res.Timing.Profile = profileTime
	return res, nil
}

// Dedup clusters a table's fuzzy duplicates: it runs SelfJoin and merges
// the joined pairs with union-find, returning clusters of size >= 2 (each
// a sorted slice of record indexes), ordered by their smallest member.
func Dedup(records []string, opt Options) ([][]int, error) {
	res, err := SelfJoin(records, opt)
	if err != nil {
		return nil, err
	}
	parent := make([]int, len(records))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, j := range res.Joins {
		union(j.Right, j.Left)
	}
	groups := map[int][]int{}
	for i := range records {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	var clusters [][]int
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		sort.Ints(members)
		clusters = append(clusters, members)
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	return clusters, nil
}
