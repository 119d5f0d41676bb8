package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const testProgramJSON = `{
  "version": 1,
  "configurations": [{"preprocess": "L", "distance": "ED", "threshold": 0.4}],
  "blocking_beta": 1
}`

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// startDaemon runs the daemon on a loopback port and returns its base
// URL plus a stop function that triggers and awaits graceful shutdown.
func startDaemon(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ready := make(chan string, 1)
	shutdown := make(chan struct{})
	done := make(chan error, 1)
	var stderr bytes.Buffer
	go func() { done <- run(args, &stderr, ready, shutdown) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			close(shutdown)
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				return io.ErrNoProgress
			}
		}
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v (stderr: %s)", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

// TestDaemonEndToEnd: start from flags, serve a query, check readiness
// and metrics, then shut down gracefully.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "prog.json")
	leftPath := filepath.Join(dir, "left.csv")
	writeFile(t, progPath, testProgramJSON)
	writeFile(t, leftPath, "name\nalpha research institute\nbravo analytics bureau\n")

	base, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-name", "orgs", "-program", progPath, "-left", leftPath, "-column", "name",
	})

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/programs/orgs/query?q=alpha+reserch+institute")
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Match     bool   `json:"match"`
		LeftValue string `json:"left_value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !q.Match || q.LeftValue != "alpha research institute" {
		t.Errorf("query answer: %+v", q)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "autofjd_requests_total 1") {
		t.Errorf("metrics after one query:\n%s", metrics)
	}

	if err := stop(); err != nil {
		t.Errorf("shutdown: %v", err)
	}

	// The listener must actually be gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

// TestDaemonDropsStalledClients: a client that opens a connection and
// never finishes its request headers is disconnected after
// readHeaderTimeout instead of holding the connection forever; an
// oversize body is answered 413 through the real server; and the daemon
// keeps serving other clients throughout.
func TestDaemonDropsStalledClients(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "prog.json")
	leftPath := filepath.Join(dir, "left.csv")
	writeFile(t, progPath, testProgramJSON)
	writeFile(t, leftPath, "name\nalpha research institute\nbravo analytics bureau\n")
	base, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-name", "orgs", "-program", progPath, "-left", leftPath, "-column", "name",
	})
	defer stop()
	queryOK := func(stage string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/programs/orgs/query?q=alpha+reserch+institute")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query = %d", stage, resp.StatusCode)
		}
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers started, never finished (no blank line).
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: autofjd\r\nX-Stalled: 1\r\n"); err != nil {
		t.Fatal(err)
	}
	queryOK("while a client stalls")
	// Generous safety deadline: only the server's timeout should end this.
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 20*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		t.Fatal("stalled connection still open long after readHeaderTimeout")
	}
	if err == nil || n != 0 {
		t.Fatalf("stalled connection read %d bytes, err %v; want the server to close it", n, err)
	}
	queryOK("after dropping the stalled client")

	resp, err := http.Post(base+"/v1/programs/orgs/query", "application/json",
		strings.NewReader(`{"query":"`+strings.Repeat("a", 8<<20)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize query body = %d, want 413", resp.StatusCode)
	}
	queryOK("after an oversize body")
}

// TestDaemonConfigFile: the -config path end to end.
func TestDaemonConfigFile(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "prog.json")
	leftPath := filepath.Join(dir, "left.csv")
	cfgPath := filepath.Join(dir, "autofjd.json")
	writeFile(t, progPath, testProgramJSON)
	writeFile(t, leftPath, "name\nalpha research institute\n")
	writeFile(t, cfgPath, `{
		"listen": "127.0.0.1:0",
		"programs": [{"name": "orgs", "program_path": `+jsonString(progPath)+`,
		              "left_path": `+jsonString(leftPath)+`}],
		"drain_timeout_ms": 2000, "delta_max": 16
	}`)

	base, stop := startDaemon(t, []string{"-config", cfgPath})
	defer stop()

	var listing struct {
		Programs []struct {
			Name    string `json:"name"`
			Records int    `json:"records"`
		} `json:"programs"`
	}
	resp, err := http.Get(base + "/v1/programs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Programs) != 1 || listing.Programs[0].Name != "orgs" || listing.Programs[0].Records != 1 {
		t.Errorf("listing: %+v", listing)
	}
}

// TestDaemonSnapshotBoot: the first run compiles and writes -snapshot;
// the second run boots from the snapshot alone (no -program, no -left)
// and serves, appends, and compacts through the HTTP API.
func TestDaemonSnapshotBoot(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "prog.json")
	leftPath := filepath.Join(dir, "left.csv")
	snapPath := filepath.Join(dir, "orgs.afjs")
	writeFile(t, progPath, testProgramJSON)
	writeFile(t, leftPath, "name\nalpha research institute\nbravo analytics bureau\n")

	// Boot 1: compile, write the snapshot.
	_, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-name", "orgs", "-program", progPath, "-left", leftPath,
		"-column", "name", "-snapshot", snapPath,
	})
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// Boot 2: snapshot only, with a tiny compaction trigger.
	base, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-name", "orgs", "-snapshot", snapPath, "-delta-max", "1",
	})
	defer stop()

	query := func(q string) (bool, string) {
		t.Helper()
		resp, err := http.Get(base + "/v1/programs/orgs/query?q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Match     bool   `json:"match"`
			LeftValue string `json:"left_value"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Match, body.LeftValue
	}
	if ok, val := query("alpha+reserch+institute"); !ok || val != "alpha research institute" {
		t.Errorf("snapshot-booted query: match=%v left=%q", ok, val)
	}

	// Append a row over HTTP; it must answer immediately from the delta,
	// and the background compactor (delta-max 1) must fold it in.
	resp, err := http.Post(base+"/v1/programs/orgs/rows", "application/json",
		strings.NewReader(`{"records":["carol standards council"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rows append = %d", resp.StatusCode)
	}
	if ok, val := query("carol+standards+councle"); !ok || val != "carol standards council" {
		t.Errorf("appended row query: match=%v left=%q", ok, val)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var listing struct {
			Programs []struct {
				DeltaRows int `json:"delta_rows"`
				Records   int `json:"records"`
			} `json:"programs"`
		}
		resp, err := http.Get(base + "/v1/programs")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(listing.Programs) == 1 && listing.Programs[0].DeltaRows == 0 {
			if listing.Programs[0].Records != 3 {
				t.Errorf("records after compaction = %d", listing.Programs[0].Records)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delta never compacted: %+v", listing)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ok, val := query("carol+standards+councle"); !ok || val != "carol standards council" {
		t.Errorf("post-compaction query: match=%v left=%q", ok, val)
	}
}

// TestDaemonFlagValidation: the startup error paths exit instead of
// serving nothing.
func TestDaemonFlagValidation(t *testing.T) {
	if err := run(nil, io.Discard, nil, nil); err == nil {
		t.Error("no programs accepted")
	}
	if err := run([]string{"-name", "orgs"}, io.Discard, nil, nil); err == nil {
		t.Error("-name without -program/-left accepted")
	}
	if err := run([]string{"-name", "orgs", "-snapshot", "/nonexistent/orgs.afjs"},
		io.Discard, nil, nil); err == nil {
		t.Error("-name with a missing -snapshot and no -program/-left accepted")
	}
	if err := run([]string{"-config", "/nonexistent/autofjd.json"}, io.Discard, nil, nil); err == nil {
		t.Error("missing config accepted")
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestSignalShutdown drives the daemon's own signal path (nil shutdown
// channel): a SIGTERM to the process, sent the moment run reports ready,
// must produce a clean graceful exit — run installs its handler before it
// listens, so there is no window in which the signal kills the process.
// (Goroutine leaks on this path are autofjvet's leakygo's to catch;
// counting goroutines here would count os/signal's process-lifetime one.)
func TestSignalShutdown(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "prog.json")
	leftPath := filepath.Join(dir, "left.csv")
	writeFile(t, progPath, testProgramJSON)
	writeFile(t, leftPath, "name\nalpha research institute\nbravo analytics bureau\n")

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var stderr bytes.Buffer
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-name", "orgs", "-program", progPath, "-left", leftPath, "-column", "name",
		}, &stderr, ready, nil)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v (stderr: %s)", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v (stderr: %s)", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
}
