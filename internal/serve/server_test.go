package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	reg := newTestRegistry(t, cfg)
	srv := NewServer(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before SetReady = %d", code)
	}
	srv.SetReady(true)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz after SetReady = %d", code)
	}

	// Register via the admin endpoint (inline spec, no files).
	spec := testSpec("") // name comes from the URL
	var info ProgramInfo
	if code := postJSON(t, ts.URL+"/v1/programs/orgs", spec, &info); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	if info.Name != "orgs" || info.Records != len(testNames) {
		t.Fatalf("register info: %+v", info)
	}

	// Name conflict between URL and spec body is rejected.
	bad := testSpec("other")
	if code := postJSON(t, ts.URL+"/v1/programs/orgs", bad, nil); code != http.StatusBadRequest {
		t.Errorf("conflicting spec name = %d", code)
	}

	var q queryResponse
	if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=alpha+reserch+institute", &q); code != http.StatusOK {
		t.Fatalf("query = %d", code)
	}
	if !q.Match || q.Left != 0 || q.LeftValue != testNames[0] {
		t.Fatalf("query response: %+v", q)
	}

	if code := postJSON(t, ts.URL+"/v1/programs/orgs/query",
		map[string]any{"query": "bravo analytics"}, &q); code != http.StatusOK || !q.Match {
		t.Errorf("POST query = %d, %+v", code, q)
	}

	var batch struct {
		Results []queryResponse `json:"results"`
	}
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/batch",
		map[string]any{"queries": []string{testNames[0], "zzz nothing"}}, &batch); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if len(batch.Results) != 2 || !batch.Results[0].Match || batch.Results[1].Match {
		t.Errorf("batch results: %+v", batch.Results)
	}

	var listing struct {
		Programs []ProgramInfo `json:"programs"`
	}
	if code := getJSON(t, ts.URL+"/v1/programs", &listing); code != http.StatusOK || len(listing.Programs) != 1 {
		t.Errorf("listing = %d, %+v", code, listing)
	}

	metricsBody := getMetrics(t, ts.URL)
	if !strings.Contains(string(metricsBody), "autofjd_requests_total") {
		t.Errorf("metrics output: %s", metricsBody)
	}
	// The queries above (two single, two in the batch) were four distinct
	// surface forms: the per-program result-cache counters, read from the
	// table, must show four misses and no hit.
	if !strings.Contains(string(metricsBody), `autofjd_cache_hits_total{program="orgs"} 0`) ||
		!strings.Contains(string(metricsBody), `autofjd_cache_misses_total{program="orgs"} 4`) {
		t.Errorf("metrics output missing result-cache counters: %s", metricsBody)
	}
	// Three of the four queries matched.
	if !strings.Contains(string(metricsBody), `autofjd_program_queries_total{program="orgs"} 4`) ||
		!strings.Contains(string(metricsBody), `autofjd_program_matches_total{program="orgs"} 3`) {
		t.Errorf("metrics output missing per-program query counters: %s", metricsBody)
	}

	// Error mapping: unknown program 404, wrong arity 400, bad body 400.
	if code := getJSON(t, ts.URL+"/v1/programs/nope/query?q=x", nil); code != http.StatusNotFound {
		t.Errorf("unknown program = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/query",
		map[string]any{"row": []string{"a", "b"}}, nil); code != http.StatusBadRequest {
		t.Errorf("wrong arity = %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/programs/orgs/query", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}

	// Remove, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/programs/orgs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("delete = %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=x", nil); code != http.StatusNotFound {
		t.Errorf("query after delete = %d", code)
	}
	if body := getMetrics(t, ts.URL); strings.Contains(string(body), `program="orgs"`) {
		t.Errorf("removed program still exported: %s", body)
	}
}

// getMetrics fetches the /metrics exposition.
func getMetrics(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDaemonSmoke is the acceptance scenario, designed to run under
// -race: sustained concurrent queries through the full HTTP stack while
// (a) the program is hot-swapped mid-traffic to a version whose
// reference table is reordered (so any stale index rendering shows up as
// a wrong left_value) and (b) malformed requests hammer the same
// program. Every well-formed query must be answered bit-identically to
// one of the two program versions' direct Matcher.Match results, and no
// request may be dropped or answered 5xx.
func TestDaemonSmoke(t *testing.T) {
	specV0 := testSpec("orgs")
	reversed := make([]string, len(testNames))
	for i, n := range testNames {
		reversed[len(testNames)-1-i] = n
	}
	specV1 := testSpec("orgs")
	specV1.LeftCSV = testLeftCSV(reversed)

	cpV0, err := specV0.resolve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cpV1, err := specV1.resolve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]string, 0, 3*len(testNames))
	for _, n := range testNames {
		queries = append(queries, n, n[:len(n)-3], "the "+n)
	}
	type expect struct {
		ok   bool
		val  string
		dist float64
	}
	expected := func(cp *compiledProgram, q string) expect {
		m, ok, err := cp.table.Match(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		e := expect{ok: ok}
		if ok {
			row, err := cp.table.Row(m.Left)
			if err != nil {
				t.Fatal(err)
			}
			e.val = core.DisplayRow(row, cp.table.MultiColumn())
			e.dist = m.Distance
		}
		return e
	}
	expV0 := make(map[string]expect, len(queries))
	expV1 := make(map[string]expect, len(queries))
	for _, q := range queries {
		expV0[q] = expected(cpV0, q)
		expV1[q] = expected(cpV1, q)
	}

	srv, ts := newTestServer(t, Config{})
	if err := srv.reg.Register(specV0); err != nil {
		t.Fatal(err)
	}
	srv.SetReady(true)

	const (
		workers   = 8
		perWorker = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, workers+2)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				resp, err := http.Get(ts.URL + "/v1/programs/orgs/query?q=" +
					strings.ReplaceAll(q, " ", "+"))
				if err != nil {
					errc <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				var got queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if decErr != nil {
					errc <- fmt.Errorf("worker %d decode: %v", w, decErr)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("worker %d query %q: status %d", w, q, resp.StatusCode)
					return
				}
				gotE := expect{ok: got.Match, val: got.LeftValue, dist: got.Distance}
				if gotE != expV0[q] && gotE != expV1[q] {
					errc <- fmt.Errorf("worker %d query %q: got %+v, want %+v (v0) or %+v (v1)",
						w, q, gotE, expV0[q], expV1[q])
					return
				}
			}
		}(w)
	}

	// Mid-traffic hot swap through the admin endpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond) // let some v0 traffic through first
		data, _ := json.Marshal(ProgramSpec{Program: specV1.Program, LeftCSV: specV1.LeftCSV})
		resp, err := http.Post(ts.URL+"/v1/programs/orgs", "application/json", bytes.NewReader(data))
		if err != nil {
			errc <- fmt.Errorf("swap: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("swap: status %d", resp.StatusCode)
		}
	}()

	// Malformed traffic: wrong arity and garbage bodies against the same
	// program must 400 without disturbing the workers' queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			body := `{"row":["a","b","c"]}`
			if i%2 == 1 {
				body = `{"que` // truncated JSON
			}
			resp, err := http.Post(ts.URL+"/v1/programs/orgs/query", "application/json",
				strings.NewReader(body))
			if err != nil {
				errc <- fmt.Errorf("malformed request: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				errc <- fmt.Errorf("malformed request %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	snap := srv.reg.Metrics().Snapshot(time.Now())
	if want := uint64(workers * perWorker); snap.Requests < want {
		t.Errorf("requests = %d, want >= %d (dropped traffic?)", snap.Requests, want)
	}
	infos := srv.reg.Programs()
	if len(infos) != 1 || infos[0].Generation != 1 {
		t.Errorf("post-swap generation: %+v", infos)
	}
}

// oversizeBody is a syntactically valid JSON object of more than limit
// bytes: one string field padded past the cap.
func oversizeBody(field string, limit int) string {
	return `{"` + field + `":"` + strings.Repeat("a", limit) + `"}`
}

// TestServerBodyLimits: every JSON-body endpoint answers 413 to a body
// over its cap without decoding it, the connection that sent it is closed
// while the server keeps answering new requests, and registration — whose
// body may inline a reference table — accepts bodies past the data-path
// cap.
func TestServerBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postJSON(t, ts.URL+"/v1/programs/orgs", testSpec(""), nil); code != http.StatusOK {
		t.Fatalf("register = %d", code)
	}
	cases := []struct{ method, path, field string }{
		{http.MethodPost, "/v1/programs/orgs/query", "query"},
		{http.MethodPost, "/v1/programs/orgs/batch", "queries"},
		{http.MethodPost, "/v1/programs/orgs/rows", "records"},
		{http.MethodDelete, "/v1/programs/orgs/rows", "indices"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(oversizeBody(c.field, maxRequestBytes)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		var body map[string]string
		decErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || decErr != nil || !strings.Contains(body["error"], "exceeds") {
			t.Errorf("%s %s oversize: status %d, body %v (%v)", c.method, c.path, resp.StatusCode, body, decErr)
		}
		if !resp.Close {
			t.Errorf("%s %s oversize: connection kept open", c.method, c.path)
		}
		// The next request is served.
		var q queryResponse
		if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=alpha+reserch+institute", &q); code != http.StatusOK || !q.Match {
			t.Fatalf("query after oversize %s %s: %d %+v", c.method, c.path, code, q)
		}
	}

	// A body of exactly the cap still decodes and is answered, so the
	// limit is the cap, not below it.
	under := `{"query":"` + strings.Repeat("a", maxRequestBytes-len(`{"query":""}`)) + `"}`
	if len(under) != maxRequestBytes {
		t.Fatalf("under-cap body is %d bytes", len(under))
	}
	var q queryResponse
	if code := postJSON(t, ts.URL+"/v1/programs/orgs/query", json.RawMessage(under), &q); code != http.StatusOK || q.Match {
		t.Errorf("query body at the cap: status %d, %+v", code, q)
	}

	// Registration carries its own, larger cap: a spec padded past the
	// data-path cap with a field the decoder ignores still registers.
	spec, err := json.Marshal(testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	padded := strings.TrimSuffix(string(spec), "}") + `,"padding":"` + strings.Repeat("p", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/programs/orgs", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("register with a %d-byte body = %d", len(padded), resp.StatusCode)
	}
}

// TestRegisterRefusesPaths: a spec posted over HTTP that sets a path
// field gets 400 and registers nothing. A reference path at a plain text
// file is not read back through a query, and a snapshot path at a new
// file is not created.
func TestRegisterRefusesPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dir := t.TempDir()
	prog, secret, snap := filepath.Join(dir, "prog.json"), filepath.Join(dir, "secret.txt"), filepath.Join(dir, "new.afjs")
	if err := os.WriteFile(prog, []byte(testProgramJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(secret, []byte("name\nprivate line one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	withPath := func(set func(*ProgramSpec)) ProgramSpec {
		spec := testSpec("")
		set(&spec)
		return spec
	}
	for key, spec := range map[string]ProgramSpec{
		"program_path":  withPath(func(s *ProgramSpec) { s.Program, s.ProgramPath = nil, prog }),
		"left_path":     withPath(func(s *ProgramSpec) { s.LeftCSV, s.LeftPath = "", secret }),
		"snapshot_path": withPath(func(s *ProgramSpec) { s.SnapshotPath = snap }),
	} {
		var body map[string]any
		if code := postJSON(t, ts.URL+"/v1/programs/orgs", spec, &body); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), key) {
			t.Errorf("spec with %s: status %d, body %v; want 400 naming the field", key, code, body)
		}
		var q map[string]any
		if code := getJSON(t, ts.URL+"/v1/programs/orgs/query?q=private+line+one", &q); code != http.StatusNotFound {
			t.Errorf("after a spec with %s: query = %d %v, want 404 (nothing registered)", key, code, q)
		}
	}
	if _, err := os.Stat(snap); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("snapshot path: %v, want no file created", err)
	}
}

// TestServerOverload: with every table slot held, maxTableWaiters queries
// wait for one and every query past them is refused at once with 503 and
// a Retry-After header; once the slots free up, the waiting queries answer
// as they do on an idle server.
func TestServerOverload(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if err := srv.reg.Register(testSpec("orgs")); err != nil {
		t.Fatal(err)
	}
	srv.SetReady(true)
	type answer struct {
		query string
		code  int
		retry string
		resp  queryResponse
		err   error
	}
	get := func(q string) answer {
		a := answer{query: q}
		resp, err := http.Get(ts.URL + "/v1/programs/orgs/query?q=" + url.QueryEscape(q))
		if err != nil {
			a.err = err
			return a
		}
		defer resp.Body.Close()
		a.code, a.retry = resp.StatusCode, resp.Header.Get("Retry-After")
		if a.code == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.resp)
			a.resp.Cached = false // a repeat is cached; the answer is the same
		}
		return a
	}
	queries := []string{"alpha reserch institute", "bravo analytcs bureau", "delta histry museum", "zzz unrelated"}
	want := map[string]queryResponse{}
	for _, q := range queries {
		a := get(q)
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("idle query %q: status %d, err %v", q, a.code, a.err)
		}
		want[q] = a.resp
	}
	if !want[queries[0]].Match || want[queries[3]].Match {
		t.Fatalf("vacuous fixture: %+v", want)
	}

	held := cap(srv.reg.sem)
	for range held { // stand in for admitted table calls
		srv.reg.sem <- struct{}{}
	}
	release := func() {
		for ; held > 0; held-- {
			<-srv.reg.sem
		}
	}
	t.Cleanup(release) // a failed run must not leave the waiters parked
	const excess = 8
	answers := make(chan answer, maxTableWaiters+excess)
	for i := range maxTableWaiters + excess {
		go func() { answers <- get(queries[i%len(queries)]) }()
	}
	// No waiter can leave while the slots are held, so the first answers
	// are exactly the refused ones.
	next := func() answer {
		t.Helper()
		select {
		case a := <-answers:
			return a
		case <-time.After(30 * time.Second):
			t.Fatal("no answer within 30 s")
		}
		return answer{}
	}
	for range excess {
		if a := next(); a.err != nil || a.code != http.StatusServiceUnavailable || a.retry == "" {
			t.Fatalf("query past the waiter cap: status %d, Retry-After %q, err %v", a.code, a.retry, a.err)
		}
	}
	if n := len(srv.reg.queue); n != maxTableWaiters {
		t.Fatalf("%d queries waiting, want %d", n, maxTableWaiters)
	}
	release()
	for range maxTableWaiters {
		a := next()
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("waiting query %q: status %d, err %v", a.query, a.code, a.err)
		}
		if a.resp != want[a.query] {
			t.Errorf("waiting query %q: %+v, idle server %+v", a.query, a.resp, want[a.query])
		}
	}
}
