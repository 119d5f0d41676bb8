package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/benchgen"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/config"
)

// ledgerProgram returns the serving shape of the benchmark ledger: the
// program learned on benchgen task 0 at scale 1 with default options, and
// the reference keys of the same task at scale 10 (|L| = 6,270).
func ledgerProgram(t *testing.T) (*Program, []string) {
	t.Helper()
	train := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 1})
	ref := benchgen.SingleColumnTask(0, benchgen.Options{Seed: 1, Scale: 10})
	res, err := JoinTables(train.LeftKey(), train.RightKey(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.ToProgram(), ref.LeftKey()
}

// nearQueries returns n never-seen queries made from random keys: half by
// the benchmark's perturbation profile, half by edits that keep the length
// (a swap of two neighbouring runes or one substituted letter), so the
// length bound alone rarely decides and the signature bound must.
func nearQueries(keys []string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	prof := benchgen.DefaultProfile()
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	var qs []string
	for len(qs) < n {
		k := keys[rng.Intn(len(keys))]
		q := prof.Apply(rng, k)
		if r := []rune(k); len(qs)%2 == 1 && len(r) > 2 {
			i := rng.Intn(len(r) - 1)
			if rng.Intn(2) == 0 {
				r[i], r[i+1] = r[i+1], r[i]
			} else {
				r[i] = rune('a' + rng.Intn(26))
			}
			q = string(r)
		}
		if q != "" && !seen[q] {
			seen[q] = true
			qs = append(qs, q)
		}
	}
	return qs
}

// TestCharBoundWorkCount counts, exactly, the char groups the candidate
// scan runs and skips on the ledger's serving shape (the scan alone: no
// ball is counted).
func TestCharBoundWorkCount(t *testing.T) {
	prog, left := ledgerProgram(t)
	tab, err := prog.NewTable(1, toRows(left), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	queries := nearQueries(left, 300, 29)
	ms := tab.getScratch()
	defer tab.putScratch(ms)
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	for _, q := range queries {
		tab.scan(ms, tab.fillQuery(ms, []string{q}), []string{q})
	}
	scored, skipped := ms.esc.CharWork()
	share := float64(skipped) / float64(scored+skipped)
	t.Logf("candidate scan: %d char groups run, %d skipped (%.1f %%) over %d queries",
		scored, skipped, 100*share, len(queries))
	if share < 0.8 {
		t.Fatalf("skipped %.1f %% of candidate-scan char groups, want at least 80 %%", 100*share)
	}
}

// fullBalls counts on table full, with no cap, the ball of every row bestL
// joins, as a miss counted every ball before counts were capped, except
// those done holds: a (configuration, row) whose group an earlier call
// scanned at that row. It adds the groups it scans to done.
func fullBalls(full *Table, fs *tableScratch, bestL []int32, done map[[2]int32]bool) {
	copy(fs.bestL, bestL)
	fs.rows, fs.center = fs.rows[:0], -1
	var center [1]config.Fixed
	for ci, l := range fs.bestL {
		if l < 0 || done[[2]int32{int32(ci), l}] {
			continue
		}
		full.countBallTo(fs, center[:], ci, l, math.MaxUint32)
		for cj := range full.configs {
			if full.eval.Group(cj) == full.eval.Group(ci) {
				done[[2]int32{int32(cj), l}] = true
			}
		}
	}
	fs.releaseSides()
}

// TestSetBoundWorkCount counts, exactly, the set groups the candidate
// scan runs and skips by distance.SetBound on the ledger's serving shape,
// over the queries of TestCharBoundWorkCount. The first pass answers each
// query in full and finds every candidate's IDF run sums cold; the second
// runs the candidate scan alone, with the sums of every candidate it
// meets stored by the first. A second table counts the balls of the same
// queries' joined rows in full (fullBalls), for the ball counts' share
// (cut 2θ).
func TestSetBoundWorkCount(t *testing.T) {
	prog, left := ledgerProgram(t)
	tab, err := prog.NewTable(1, toRows(left), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := prog.NewTable(1, toRows(left), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	queries := nearQueries(left, 300, 29)
	ms, fs := tab.getScratch(), full.getScratch()
	defer tab.putScratch(ms)
	defer full.putScratch(fs)
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	full.mu.RLock()
	defer full.mu.RUnlock()
	share := func(scored, skipped uint64) float64 { return float64(skipped) / float64(scored+skipped) }
	done := map[[2]int32]bool{}
	for _, q := range queries {
		tab.matchOne(ms, []string{q})
		fullBalls(full, fs, ms.bestL, done)
	}
	coldScored, coldSkipped := ms.esc.SetWork()
	ballScored, ballSkipped := fs.esc.SetWork()
	for _, q := range queries {
		tab.scan(ms, tab.fillQuery(ms, []string{q}), []string{q})
	}
	scored, skipped := ms.esc.SetWork()
	scored, skipped = scored-coldScored, skipped-coldSkipped
	t.Logf("cold pass (scan and capped ball counts): %d set groups run, %d skipped (%.1f %%)",
		coldScored, coldSkipped, 100*share(coldScored, coldSkipped))
	t.Logf("full ball counts: %d set groups run, %d skipped (%.1f %%)",
		ballScored, ballSkipped, 100*share(ballScored, ballSkipped))
	t.Logf("warm candidate scan: %d set groups run, %d skipped (%.1f %%) over %d queries",
		scored, skipped, 100*share(scored, skipped), len(queries))
	if s := share(scored, skipped); s < 0.8 {
		t.Fatalf("skipped %.1f %% of warm candidate-scan set groups, want at least 80 %%", 100*s)
	}
}

// TestLedgerBoundBytes: the set bound's columns on the ledger table, the
// run signatures of its rows and the table's IDF run sums, take at most
// 1.5 MB.
func TestLedgerBoundBytes(t *testing.T) {
	prog, keys := ledgerProgram(t)
	tab, err := prog.NewTable(1, oneCellRows(keys), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, sums := 0, 0
	for _, pl := range append(tab.store.segs, tab.store.delta) {
		for j := range pl.cols {
			sigs += pl.cols[j].SigBytes()
		}
	}
	for _, c := range tab.sums {
		sums += c.Bytes()
	}
	t.Logf("%d rows: signatures %d B, run sums %d B (%.1f B a row)", len(keys), sigs, sums, float64(sigs+sums)/float64(len(keys)))
	if sigs+sums > 3<<19 {
		t.Fatalf("the set bound's columns take %d B, want at most 1.5 MB", sigs+sums)
	}
}

// TestCappedBallWorkCount counts, exactly, the (candidate, group)
// evaluations ball counting runs on the ledger's serving shape, with the
// result cache off, over the queries of TestCharBoundWorkCount. A second
// table counts the balls of the same queries' joined rows in full, each
// (configuration, row) once (fullBalls), as a miss did before the counts
// were capped: the capped counts must run at most 35 % of its
// evaluations.
func TestCappedBallWorkCount(t *testing.T) {
	prog, left := ledgerProgram(t)
	capped, err := prog.NewTable(1, toRows(left), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := prog.NewTable(1, toRows(left), Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	ms, fs := capped.getScratch(), full.getScratch()
	defer capped.putScratch(ms)
	defer full.putScratch(fs)
	capped.mu.RLock()
	defer capped.mu.RUnlock()
	full.mu.RLock()
	defer full.mu.RUnlock()
	done := map[[2]int32]bool{}
	for _, q := range nearQueries(left, 300, 29) {
		capped.matchOne(ms, []string{q})
		fullBalls(full, fs, ms.bestL, done)
	}
	evals, centers := ms.ballWork()
	fullEvals, fullCenters := fs.ballWork()
	share := float64(evals) / float64(fullEvals)
	t.Logf("ball counts: %d (candidate, group) evaluations and %d centers capped, %d and %d in full (%.1f %%)",
		evals, centers, fullEvals, fullCenters, 100*share)
	if fullEvals == 0 || share > 0.35 {
		t.Fatalf("capped ball counts ran %d evaluations, %.1f %% of %d in full; want at most 35 %%", evals, 100*share, fullEvals)
	}
}

// TestChurnCompactionWorkCount counts, exactly, the work of a churn shape
// with the result cache on: 16 hot queries, a one-row Add or Remove every
// 128 ops and a Compact every 1,024. A compaction keeps the live rows and
// the generation, so the run must give the same answers with the same
// cache misses and ball evaluations as the same sequence with its Compact
// ops dropped.
func TestChurnCompactionWorkCount(t *testing.T) {
	prog, left := ledgerProgram(t)
	hot := nearQueries(left, 16, 3)
	type churn struct {
		answers       []Match
		misses, evals uint64
		compactions   int
	}
	run := func(compact bool) (c churn) {
		tab, err := prog.NewTable(1, toRows(left[:6000]), Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		ms := tab.getScratch()
		defer tab.putScratch(ms)
		rng, extra := rand.New(rand.NewSource(11)), left[6000:]
		for op := 1; op <= 4096; op++ {
			switch {
			case op%1024 == 960: // between two mutations, with delta rows to seal
				if compact {
					did, err := tab.Compact(context.Background())
					if err != nil || !did {
						t.Fatalf("op %d: Compact swapped %v, error %v", op, did, err)
					}
					c.compactions++
				}
			case op%256 == 128:
				_, err = tab.Add(toRows(extra[:1]))
				extra = extra[1:]
			case op%256 == 0:
				_, err = tab.Remove([]int{rng.Intn(tab.Len())})
			default:
				tab.mu.RLock()
				m, _ := tab.matchOne(ms, []string{hot[op%len(hot)]})
				tab.mu.RUnlock()
				c.answers = append(c.answers, m)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		_, c.misses = tab.QueryCacheStats()
		c.evals, _ = ms.ballWork()
		return c
	}
	with, without := run(true), run(false)
	t.Logf("%d compactions; %d misses and %d ball evaluations with them, %d and %d without",
		with.compactions, with.misses, with.evals, without.misses, without.evals)
	if with.compactions != 4 || without.misses == 0 || without.evals == 0 {
		t.Fatalf("vacuous run: %d compactions, %d misses, %d ball evaluations", with.compactions, without.misses, without.evals)
	}
	if !slices.Equal(with.answers, without.answers) {
		t.Fatal("the compactions changed an answer")
	}
	if with.misses != without.misses || with.evals != without.evals {
		t.Fatalf("the compactions cost work: %d misses and %d ball evaluations, %d and %d without them",
			with.misses, with.evals, without.misses, without.evals)
	}
}
