package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRegistryRowMutations: AddRows/RemoveRows mutate the reference
// table in place — no swap, no recompile — and answers reflect the new
// rows immediately, with dense indexes shifting exactly like a recompile.
func TestRegistryRowMutations(t *testing.T) {
	reg := newTestRegistry(t, Config{})
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	pre, err := reg.Query(ctx, "orgs", []string{"foxtrot data cooperativ"})
	if err != nil {
		t.Fatal(err)
	}
	if pre.OK {
		t.Fatalf("unexpected pre-add match: %+v", pre)
	}

	upd, err := reg.AddRows("orgs", [][]string{{"foxtrot data cooperative"}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Records != len(testNames)+1 || upd.DeltaRows != 1 || upd.Generation < 2 {
		t.Fatalf("add update: %+v", upd)
	}
	post, err := reg.Query(ctx, "orgs", []string{"foxtrot data cooperativ"})
	if err != nil {
		t.Fatal(err)
	}
	if !post.OK || post.LeftValue != "foxtrot data cooperative" || post.Match.Left != len(testNames) {
		t.Fatalf("post-add query: %+v", post)
	}

	// Removing row 0 shifts every later row down by one, like a recompile
	// without it.
	upd, err = reg.RemoveRows("orgs", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Records != len(testNames) {
		t.Fatalf("remove update: %+v", upd)
	}
	gone, err := reg.Query(ctx, "orgs", []string{"alpha reserch institute"})
	if err != nil {
		t.Fatal(err)
	}
	if gone.OK {
		t.Fatalf("removed row still answers: %+v", gone)
	}
	shifted, err := reg.Query(ctx, "orgs", []string{"foxtrot data cooperativ"})
	if err != nil {
		t.Fatal(err)
	}
	if !shifted.OK || shifted.Match.Left != len(testNames)-1 || shifted.LeftValue != "foxtrot data cooperative" {
		t.Fatalf("post-remove indexes did not shift: %+v", shifted)
	}

	infos := reg.Programs()
	if len(infos) != 1 || infos[0].Records != len(testNames) || infos[0].TableGeneration < 3 {
		t.Fatalf("program info after mutations: %+v", infos)
	}

	// Input validation: wrong arity, bad indices, unknown program.
	if _, err := reg.AddRows("orgs", [][]string{{"a", "b"}}); err == nil {
		t.Error("wrong-arity add accepted")
	}
	if _, err := reg.RemoveRows("orgs", []int{99}); err == nil {
		t.Error("out-of-range remove accepted")
	}
	if _, err := reg.AddRows("nope", [][]string{{"x"}}); err != ErrUnknownProgram {
		t.Errorf("unknown program add error = %v", err)
	}
	if _, err := reg.RemoveRows("nope", []int{0}); err != ErrUnknownProgram {
		t.Errorf("unknown program remove error = %v", err)
	}
}

// TestCacheGenerationBumps is the stale-cache regression test: EVERY
// mutation path — hot swap, AddRows, RemoveRows — must bump the
// generation the cache keys on BEFORE its effects are visible, so the
// first query after a mutation can never be served from the old state's
// cache entry. A compaction changes no row: it keeps the generation and
// the cached answer.
func TestCacheGenerationBumps(t *testing.T) {
	reg := newTestRegistry(t, Config{DeltaMax: -1}) // no background compaction: we force it explicitly
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// warm issues the query twice and proves the second hit comes from the
	// cache — establishing the entry a stale-generation bug would serve.
	warm := func(q string) QueryResult {
		t.Helper()
		if _, err := reg.Query(ctx, "orgs", []string{q}); err != nil {
			t.Fatal(err)
		}
		res, err := reg.Query(ctx, "orgs", []string{q})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("query %q did not cache", q)
		}
		return res
	}
	// fresh asserts the next answer was recomputed, not cached.
	fresh := func(q string) QueryResult {
		t.Helper()
		res, err := reg.Query(ctx, "orgs", []string{q})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("query %q served from cache across a mutation", q)
		}
		return res
	}

	// AddRows: a cached no-match must become a match the moment Add returns.
	probe := "foxtrot data cooperativ"
	if res := warm(probe); res.OK {
		t.Fatalf("probe matched before add: %+v", res)
	}
	if _, err := reg.AddRows("orgs", [][]string{{"foxtrot data cooperative"}}); err != nil {
		t.Fatal(err)
	}
	if res := fresh(probe); !res.OK || res.LeftValue != "foxtrot data cooperative" {
		t.Fatalf("add not visible on first post-add query: %+v", res)
	}

	// Compaction: the live rows do not change, so neither does the
	// generation, and the answer stays cached. It is still the answer of a
	// table with no result cache over the compacted table's rows.
	warm(probe)
	gen := reg.get("orgs").cur.Load().table.Generation()
	did, upd, err := reg.CompactNow(ctx, "orgs")
	if err != nil {
		t.Fatal(err)
	}
	if !did || upd.Generation != gen {
		t.Fatalf("compaction with a live delta: swapped %v, generation %d after %d", did, upd.Generation, gen)
	}
	after, err := reg.Query(ctx, "orgs", []string{probe})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached {
		t.Fatalf("query %q recomputed after a compaction", probe)
	}
	prog, err := core.DecodeProgram([]byte(testProgramJSON))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := prog.NewTable(1, reg.get("orgs").cur.Load().table.Rows(), core.Options{QueryCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if want, _, err := plain.Match(ctx, probe); err != nil || after.Match != want {
		t.Fatalf("compaction changed the answer: %+v, uncached table %+v (%v)", after.Match, want, err)
	}

	// RemoveRows: a cached match must disappear the moment Remove returns.
	target := warm(probe)
	if _, err := reg.RemoveRows("orgs", []int{target.Match.Left}); err != nil {
		t.Fatal(err)
	}
	if res := fresh(probe); res.OK {
		t.Fatalf("removed row served on first post-remove query: %+v", res)
	}

	// Hot swap: the program generation bumps even though the fresh table
	// restarts its own generation counter at 1.
	alpha := warm("alpha reserch institute")
	if !alpha.OK {
		t.Fatalf("alpha did not match: %+v", alpha)
	}
	swapped := testSpec("orgs")
	swapped.LeftCSV = testLeftCSV([]string{"golf metrics union"})
	if err := reg.Register(swapped); err != nil {
		t.Fatal(err)
	}
	if res := fresh("alpha reserch institute"); res.OK {
		t.Fatalf("swapped-out table served on first post-swap query: %+v", res)
	}
}

// TestRegistryBackgroundCompaction: once a program's delta reaches
// Config.DeltaMax, the registry's compactor folds it into a compiled
// segment without any explicit call — and answers stay correct across
// the fold.
func TestRegistryBackgroundCompaction(t *testing.T) {
	reg := newTestRegistry(t, Config{DeltaMax: 3})
	if err := reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"foxtrot data cooperative"},
		{"golf metrics union"},
		{"hotel archives commission"},
		{"india standards group"},
	}
	if _, err := reg.AddRows("orgs", rows); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos := reg.Programs()
		if len(infos) == 1 && infos[0].DeltaRows == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never folded the delta: %+v", infos)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := reg.Query(context.Background(), "orgs", []string{"hotel archives comission"})
	if err != nil || !res.OK || res.LeftValue != "hotel archives commission" {
		t.Fatalf("post-compaction query: %+v, %v", res, err)
	}
	if reg.Metrics().compactions.Load() == 0 {
		t.Error("compaction not counted")
	}
}

// TestSnapshotSpecBoot: a spec with snapshot_path compiles once and
// writes the snapshot; the next boot loads it without needing program or
// reference sources; a corrupt snapshot is a hard, descriptive error.
func TestSnapshotSpecBoot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "orgs.afjs")
	spec := testSpec("orgs")
	spec.SnapshotPath = snap

	cp1, err := spec.resolve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("first resolve did not write the snapshot: %v", err)
	}

	// Boot purely from the snapshot: no program, no reference table.
	bare := ProgramSpec{Name: "orgs", SnapshotPath: snap}
	cp2, err := bare.resolve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range testNames {
		q := name[:len(name)-2]
		want, wantOK, err := cp1.table.Match(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, gotOK, err := cp2.table.Match(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("query %q: snapshot boot answered %+v, compile %+v", q, got, want)
		}
	}

	// Without the snapshot, a bare spec cannot resolve.
	missing := ProgramSpec{Name: "orgs", SnapshotPath: filepath.Join(t.TempDir(), "nope.afjs")}
	if _, err := missing.resolve(core.Options{}); err == nil {
		t.Error("bare spec without a snapshot resolved")
	}

	// A corrupt snapshot must fail loudly, not silently recompile.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = spec.resolve(core.Options{})
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("corrupt-snapshot error not descriptive: %v", err)
	}
}

// TestSnapshotSpecOtherVersion: a snapshot of another format version is
// refused alone, naming both versions, and with the program and the
// reference table beside it is compiled over and rewritten in the current
// version.
func TestSnapshotSpecOtherVersion(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "orgs.afjs")
	spec := testSpec("orgs")
	spec.SnapshotPath = snap
	if _, err := spec.resolve(core.Options{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	current := data[4]
	data[4] = current - 1 // the header's version byte, outside the checksum
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	bare := ProgramSpec{Name: "orgs", SnapshotPath: snap}
	_, err = bare.resolve(core.Options{})
	if !errors.Is(err, core.ErrSnapshotVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version %d (this build reads version %d)", current-1, current)) {
		t.Fatalf("bare spec over an old snapshot: %v, want the unsupported-version error naming both versions", err)
	}

	reg := newTestRegistry(t, Config{})
	if err := reg.Register(spec); err != nil {
		t.Fatalf("a spec with program and reference over an old snapshot does not register: %v", err)
	}
	if data, err = os.ReadFile(snap); err != nil || data[4] != current {
		t.Fatalf("the old snapshot was not rewritten: version %d, %v", data[4], err)
	}
	if _, err := bare.resolve(core.Options{}); err != nil {
		t.Fatalf("the rewritten snapshot does not load: %v", err)
	}
}

// TestServerRowEndpoints drives the mutation endpoints through the full
// HTTP stack: append, delete, compact, and every input-validation error.
func TestServerRowEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{DeltaMax: -1})
	if err := srv.reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}

	var upd TableUpdate
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/rows",
		map[string]any{"records": []string{"foxtrot data cooperative"}}, &upd); code != http.StatusOK {
		t.Fatalf("add rows = %d", code)
	}
	if upd.Records != len(testNames)+1 || upd.DeltaRows != 1 {
		t.Fatalf("add update: %+v", upd)
	}
	var q queryResponse
	if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=foxtrot+data+cooperativ", &q); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if !q.Match || q.LeftValue != "foxtrot data cooperative" {
		t.Fatalf("appended row not served: %+v", q)
	}

	var compacted struct {
		Compacted  bool   `json:"compacted"`
		Generation uint64 `json:"generation"`
		DeltaRows  int    `json:"delta_rows"`
	}
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/compact", map[string]any{}, &compacted); code != http.StatusOK {
		t.Fatalf("compact = %d", code)
	}
	if !compacted.Compacted || compacted.DeltaRows != 0 {
		t.Fatalf("compact response: %+v", compacted)
	}

	del := func(body string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/programs/orgs/rows",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(`{"indices": [0]}`); code != http.StatusOK {
		t.Fatalf("delete rows = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=alpha+reserch+institute", &q); code != http.StatusOK {
		t.Fatal("query after delete failed")
	}
	if q.Match {
		t.Fatalf("deleted row still matches: %+v", q)
	}

	// Validation errors: 400s with the registry untouched; unknown name 404.
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/rows",
		map[string]any{"rows": [][]string{{"a", "b"}}}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong arity = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/rows",
		map[string]any{"records": []string{"x"}, "rows": [][]string{{"y"}}}, nil); code != http.StatusBadRequest {
		t.Errorf("records+rows = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/rows", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty body = %d", code)
	}
	if code := del(`{"indices": [1, 1]}`); code != http.StatusBadRequest {
		t.Errorf("duplicate indices = %d", code)
	}
	if code := del(`{"indices": [999]}`); code != http.StatusBadRequest {
		t.Errorf("out-of-range index = %d", code)
	}
	if code := del(`{}`); code != http.StatusBadRequest {
		t.Errorf("missing indices = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/programs/nope/rows",
		map[string]any{"records": []string{"x"}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown program = %d", code)
	}
}
