package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
)

// buildDir is where everything the benchmark leaves behind goes, relative
// to the directory it is run from (the repository root).
const buildDir = ".bench_build"

// live tracks what must not outlive the run: child processes and temp
// directories. cleanupAll is called on normal exit, on panic and on
// SIGINT/SIGTERM.
var live struct {
	mu    sync.Mutex
	procs map[*os.Process]bool
	dirs  []string
}

func trackProc(p *os.Process, on bool) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.procs == nil {
		live.procs = map[*os.Process]bool{}
	}
	if on {
		live.procs[p] = true
	} else {
		delete(live.procs, p)
	}
}

func cleanupAll() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for p := range live.procs {
		_ = p.Kill() // already gone is fine: nothing must survive us
		_, _ = p.Wait()
	}
	live.procs = nil
	for _, d := range live.dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
	live.dirs = nil
}

// runDir makes this run's temp directory under buildDir.
func runDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", err
	}
	live.mu.Lock()
	live.dirs = append(live.dirs, dir)
	live.mu.Unlock()
	return dir, nil
}

// buildDaemon compiles cmd/autofjd of the tree the benchmark is run from.
// It happens once per run, before anything is timed.
func buildDaemon() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "autofjd")); err != nil {
		return "", fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "autofjd"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/autofjd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/autofjd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemonFiles writes the two artifacts a compile boot reads.
func daemonFiles(dir string, prog *core.Program, left []string) (progPath, leftPath string, err error) {
	progPath = filepath.Join(dir, "program.json")
	leftPath = filepath.Join(dir, "left.csv")
	data, err := prog.Encode()
	if err != nil {
		return "", "", err
	}
	if err := os.WriteFile(progPath, data, 0o644); err != nil {
		return "", "", err
	}
	f, err := os.Create(leftPath)
	if err != nil {
		return "", "", err
	}
	tab := dataset.SingleColumn("name", left)
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return "", "", err
	}
	return progPath, leftPath, f.Close()
}

// daemon is one running autofjd process and the HTTP client that talks to
// it. It implements system.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	waited chan error

	mu   sync.Mutex
	tail []string // last lines of the daemon's stderr, for error messages
}

// startDaemon boots autofjd on a port the kernel picks, parses the bound
// address from its stderr and waits for /readyz.
func startDaemon(bin, progPath, leftPath string, clients int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-name", "t", "-program", progPath, "-left", leftPath)
	// If the harness is killed outright the kernel takes the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackProc(cmd.Process, true)
	d := &daemon{
		cmd:    cmd,
		waited: make(chan error, 1),
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		},
	}
	addrc := make(chan string, 1)
	scanned := make(chan struct{})
	//autofj:leak-ok ends at the EOF the daemon's exit puts on its stderr; its one send never blocks (select with default)
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 8 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "program(s) on "); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	// Wait may only be called once the pipe has been read to its end.
	//autofj:leak-ok waited is buffered (cap 1) and this is its only sender, so the goroutine exits as soon as the process has
	go func() { <-scanned; d.waited <- cmd.Wait() }()

	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case err := <-d.waited:
		trackProc(cmd.Process, false)
		return nil, fmt.Errorf("autofjd exited during boot: %v\n%s", err, d.stderrTail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("autofjd did not report its address within 60s\n%s", d.stderrTail())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("autofjd not ready within 10s (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may have exited already
	<-d.waited
	trackProc(d.cmd.Process, false)
}

// close asks the daemon to drain with SIGTERM, waits for it, and kills it
// after five seconds.
func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling autofjd: %w", err)
	}
	select {
	case err := <-d.waited:
		trackProc(d.cmd.Process, false)
		if err != nil {
			return fmt.Errorf("autofjd shutdown: %w\n%s", err, d.stderrTail())
		}
		return nil
	case <-time.After(5 * time.Second):
		d.kill()
		return errors.New("autofjd ignored SIGTERM for 5s and was killed")
	}
}

// queryResponse is the daemon's answer to a query (internal/serve's wire
// format).
type queryResponse struct {
	Match     bool    `json:"match"`
	Left      int     `json:"left"`
	Distance  float64 `json:"distance"`
	Precision float64 `json:"precision"`
	Config    int     `json:"config"`
	Cached    bool    `json:"cached"`
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

func (d *daemon) do(o *op) (answer, error) {
	if o.kind != opQuery {
		return answer{}, fmt.Errorf("daemon cannot run op kind %d", o.kind)
	}
	body, err := d.get("/v1/programs/t/query?q=" + url.QueryEscape(o.text))
	if err != nil {
		return answer{}, err
	}
	var r queryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, fmt.Errorf("decoding answer %q: %w", body, err)
	}
	m := core.Match{Left: r.Left, Distance: r.Distance, Precision: r.Precision, Config: r.Config}
	return matchAnswer(m, r.Match, o.truth), nil
}

// counters scrapes /metrics.
func (d *daemon) counters() (counters, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return counters{}, err
	}
	vals := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if v, err := strconv.ParseUint(line[i+1:], 10, 64); err == nil {
			vals[name] = v // gauges with fractions are not counters and are skipped
		}
	}
	return counters{
		coreHits: vals["autofjd_normcache_hits_total"], coreMisses: vals["autofjd_normcache_misses_total"],
		serveHits: vals["autofjd_cache_hits_total"], serveMisses: vals["autofjd_cache_misses_total"],
		batches: vals["autofjd_batches_total"], batchedQueries: vals["autofjd_batch_queries_total"],
	}, nil
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// cpuSeconds is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	return (utime + stime) / 100, nil
}
