// Serve: the learn-once / serve-many deployment flow. A program is
// learned from one table pair, saved as JSON (the portable artifact),
// restored, compiled into a concurrency-safe Matcher (a Table over the
// reference records), and then used to answer single-record, batch, and
// streaming queries — without ever re-learning or rebuilding the index.
package main

import (
	"context"
	"fmt"
	"iter"
	"log"

	autofj "github.com/chu-data-lab/autofuzzyjoin-go"
)

func main() {
	// The reference table the service will match against.
	left := []string{
		"Apple iPhone 12 Pro",
		"Apple iPhone 12 Mini",
		"Samsung Galaxy S21",
		"Samsung Galaxy S21 Ultra",
		"Google Pixel 5",
		"Google Pixel 4a",
		"OnePlus 8 Pro",
		"OnePlus 8T",
		"Sony Xperia 1 II",
		"Motorola Edge Plus",
	}
	// A sample of the dirty traffic, used once to learn the program.
	train := []string{
		"apple iphone 12 pro (renewed)",
		"IPHONE 12 MINI",
		"samsng galaxy s21",
		"google pixel5",
		"oneplus 8t phone",
	}

	// Phase 1 — learn once. Learn returns both the explainable result and
	// a ready-to-serve Matcher.
	res, matcher, err := autofj.Learn(left, train, autofj.Options{PrecisionTarget: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("learned program:", res.ProgramString())

	// The program is a portable artifact: persist it, ship it, and
	// recompile a Matcher in any process that holds the reference table
	// (Program.NewTable builds the same handle from rows).
	data, err := res.ToProgram().Encode()
	if err != nil {
		log.Fatal(err)
	}
	prog, err := autofj.LoadProgram(data)
	if err != nil {
		log.Fatal(err)
	}
	if matcher, err = prog.Compile(left, autofj.Options{}); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	// Phase 2 — serve many. Single-record queries:
	for _, q := range []string{"galaxy s21 ultra 5g", "pixel 4a google", "unrelated toaster"} {
		m, ok, err := matcher.Match(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("match  %-24q -> %-26q (est. precision %.2f)\n", q, left[m.Left], m.Precision)
		} else {
			fmt.Printf("match  %-24q -> (no match)\n", q)
		}
	}

	// Batch queries (sharded by Options.Parallelism, bit-identical to the
	// single-record path):
	batchQ := []string{"sony xperia 1 ii phone", "motorola edge+"}
	batch, err := matcher.MatchBatch(ctx, batchQ)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range batch {
		if m.Left >= 0 {
			fmt.Printf("batch  %-24q -> %q\n", batchQ[i], left[m.Left])
		}
	}

	// Streaming queries: results arrive in input order, one MatchBatch
	// per chunk of the iterator.
	stream := func(yield func(string) bool) {
		for _, q := range []string{"apple iphone12 mini", "one plus 8 pro", "galaxy s21"} {
			if !yield(q) {
				return
			}
		}
	}
	for sm, err := range matcher.MatchStream(ctx, iter.Seq[string](stream)) {
		if err != nil {
			log.Fatal(err)
		}
		if sm.OK {
			fmt.Printf("stream %-24q -> %q\n", sm.Record, left[sm.Match.Left])
		} else {
			fmt.Printf("stream %-24q -> (no match)\n", sm.Record)
		}
	}
}
