package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

// testProgramJSON is a fixed single-column program (no learning run):
// edit-distance within 0.4 after lowercasing, plus an equal-weight
// Jaccard configuration.
const testProgramJSON = `{
  "version": 1,
  "configurations": [
    {"preprocess": "L", "distance": "ED", "threshold": 0.4},
    {"preprocess": "L", "tokenization": "SP", "token_weights": "EW", "distance": "JD", "threshold": 0.5}
  ],
  "blocking_beta": 1
}`

func testLeftCSV(names []string) string {
	out := "name\n"
	for _, n := range names {
		out += n + "\n"
	}
	return out
}

var testNames = []string{
	"alpha research institute",
	"bravo analytics bureau",
	"carol standards council",
	"delta history museum",
	"echo science laboratory",
}

func testSpec(name string) ProgramSpec {
	return ProgramSpec{
		Name:    name,
		Program: json.RawMessage(testProgramJSON),
		LeftCSV: testLeftCSV(testNames),
	}
}

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg := NewRegistry(cfg, NewMetrics(time.Now()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := reg.Close(ctx); err != nil {
			t.Errorf("registry close: %v", err)
		}
	})
	return reg
}

func TestRegistryQueryMatchesAndCaches(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := reg.Query(ctx, "orgs", []string{"alpha reserch institute"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Match.Left != 0 || res.LeftValue != testNames[0] {
		t.Fatalf("query result: %+v", res)
	}
	if res.Cached {
		t.Fatal("first query reported cached")
	}
	again, err := reg.Query(ctx, "orgs", []string{"alpha reserch institute"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if again.Match != res.Match || again.LeftValue != res.LeftValue {
		t.Fatalf("cache hit differs from miss: %+v vs %+v", again, res)
	}

	miss, err := reg.Query(ctx, "orgs", []string{"zzz completely unrelated zzz"})
	if err != nil {
		t.Fatal(err)
	}
	if miss.OK || miss.Match.Left != -1 || miss.Match.Config != -1 {
		t.Fatalf("unrelated query matched: %+v", miss)
	}

	if _, err := reg.Query(ctx, "nope", []string{"x"}); err != ErrUnknownProgram {
		t.Fatalf("unknown program error = %v", err)
	}
	var arity *ArityError
	if _, err := reg.Query(ctx, "orgs", []string{"a", "b"}); !asArity(err, &arity) || arity.Want != 1 {
		t.Fatalf("arity error = %v", err)
	}
}

func asArity(err error, target **ArityError) bool {
	a, ok := err.(*ArityError)
	if ok {
		*target = a
	}
	return ok
}

// TestRegistryBitIdenticalToMatcher is the serving-tier equivalence
// contract: every answer (single, batch, or cached) must be the exact
// Match that a direct Table.Match call produces.
func TestRegistryBitIdenticalToMatcher(t *testing.T) {
	spec := testSpec("orgs")
	cp, err := spec.resolve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, Config{})
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	queries := make([]string, 60)
	for i := range queries {
		base := testNames[rng.Intn(len(testNames))]
		switch i % 3 {
		case 0:
			queries[i] = base
		case 1:
			queries[i] = base[:len(base)-2] // truncated
		default:
			queries[i] = base + " extra"
		}
	}
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ { // second pass exercises the cache
		for _, q := range queries {
			want, wantOK, err := cp.table.Match(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reg.Query(ctx, "orgs", []string{q})
			if err != nil {
				t.Fatal(err)
			}
			if got.Match != want || got.OK != wantOK {
				t.Fatalf("pass %d query %q: served %+v, Matcher.Match %+v", pass, q, got.Match, want)
			}
		}
	}
	// Batch endpoint: same contract.
	rows := make([][]string, len(queries))
	for i, q := range queries {
		rows[i] = []string{q}
	}
	batch, err := reg.QueryBatch(ctx, "orgs", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _, _ := cp.table.Match(ctx, q)
		if batch[i].Match != want {
			t.Fatalf("batch query %q: %+v != %+v", q, batch[i].Match, want)
		}
	}
}

// TestRegistryHotSwap: re-registering a name swaps atomically — the new
// reference table answers, and no stale cache entry survives.
func TestRegistryHotSwap(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before, err := reg.Query(ctx, "orgs", []string{"alpha reserch institute"})
	if err != nil || !before.OK {
		t.Fatalf("pre-swap query: %+v, %v", before, err)
	}

	// Swap in a different reference table: the old best match is gone and
	// a new record exists.
	swapped := testSpec("orgs")
	swapped.LeftCSV = testLeftCSV([]string{
		"foxtrot data cooperative",
		"golf metrics union",
	})
	if err := reg.Register(swapped); err != nil {
		t.Fatal(err)
	}
	infos := reg.Programs()
	if len(infos) != 1 || infos[0].Generation != 1 || infos[0].Records != 2 {
		t.Fatalf("post-swap info: %+v", infos)
	}
	after, err := reg.Query(ctx, "orgs", []string{"alpha reserch institute"})
	if err != nil {
		t.Fatal(err)
	}
	if after.OK {
		t.Fatalf("swapped-out record still answers (stale cache?): %+v", after)
	}
	hit, err := reg.Query(ctx, "orgs", []string{"foxtrot data cooperativ"})
	if err != nil || !hit.OK || hit.LeftValue != "foxtrot data cooperative" {
		t.Fatalf("new reference not served: %+v, %v", hit, err)
	}

	if !reg.Remove("orgs") {
		t.Fatal("remove failed")
	}
	if _, err := reg.Query(ctx, "orgs", []string{"x"}); err != ErrUnknownProgram {
		t.Fatalf("removed program error = %v", err)
	}
}

// TestRegistryClose: after Close, queries and registrations fail fast
// with ErrShuttingDown, and Close is idempotent.
func TestRegistryClose(t *testing.T) {
	reg := NewRegistry(Config{}, NewMetrics(time.Now()))
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := reg.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := reg.Query(context.Background(), "orgs", []string{"x"}); err != ErrShuttingDown {
		t.Fatalf("post-close query error = %v", err)
	}
	if err := reg.Register(testSpec("other")); err != ErrShuttingDown {
		t.Fatalf("post-close register error = %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.ListenAddr() != DefaultListen || c.DrainTimeout() != DefaultDrainTimeout ||
		c.deltaMax() != DefaultDeltaMax {
		t.Error("defaults not applied")
	}
	c = Config{Listen: ":0", DrainTimeoutMS: 100, DeltaMax: -1}
	if c.ListenAddr() != ":0" || c.DrainTimeout() != 100*time.Millisecond || c.deltaMax() != -1 {
		t.Error("overrides not applied")
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autofjd.json")
	if err := os.WriteFile(path, []byte(`{
		"listen": ":9090",
		"programs": [{"name": "orgs", "program_path": "p.json", "left_path": "l.csv"}],
		"delta_max": 250
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != ":9090" || len(cfg.Programs) != 1 || cfg.Programs[0].Name != "orgs" ||
		cfg.deltaMax() != 250 {
		t.Fatalf("parsed config: %+v", cfg)
	}

	// Unknown fields are a config-file typo, not silently ignored.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"listn": ":9090"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("unknown config field accepted")
	}

	// The retired cache and batching keys are unknown fields like any
	// other: a file that still sets one fails loudly, naming the key.
	if err := os.WriteFile(bad, []byte(`{"listen": ":9090", "cache_size": 16}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil || !strings.Contains(err.Error(), "cache_size") {
		t.Errorf("retired config key: err = %v, want an unknown-field error naming cache_size", err)
	}
}

// TestRegistryAdmission: with every in-flight slot taken, a query waits
// and leaves when its context ends; Close answers waiters with
// ErrShuttingDown and waits for the admitted calls only until its own
// deadline, succeeding once they have finished.
func TestRegistryAdmission(t *testing.T) {
	reg := NewRegistry(Config{}, NewMetrics(time.Now()))
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	for range cap(reg.sem) { // stand in for admitted table calls
		reg.sem <- struct{}{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := reg.Query(ctx, "orgs", []string{"x"}); err != context.DeadlineExceeded {
		t.Fatalf("query with no free slot: err = %v, want the context's", err)
	}

	waiter := make(chan error, 1)
	go func() {
		_, err := reg.Query(context.Background(), "orgs", []string{"x"})
		waiter <- err
	}()
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := reg.Close(short); err != context.DeadlineExceeded {
		t.Fatalf("close with calls still admitted: err = %v, want the deadline's", err)
	}
	select {
	case err := <-waiter:
		if err != ErrShuttingDown {
			t.Fatalf("waiting query at shutdown: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting query never left at shutdown")
	}
	if s := reg.Metrics().Snapshot(time.Now()); s.Requests != 2 || s.Failures != 2 {
		t.Errorf("requests/failures = %d/%d, want 2/2", s.Requests, s.Failures)
	}
}
