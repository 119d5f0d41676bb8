//go:build faults

package autofj

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The seeded-fault corpus: testdata/faults.json lists small wrong edits
// of the program, each with the tests that must catch it. TestSeededFaults
// applies one fault at a time through `go test -overlay` (the edited file
// is written to a temporary directory; the tree is never touched) and
// fails unless every named test reports a failure while the package still
// builds. Run it with
//
//	go test -tags faults -count=1 -run TestSeededFaults -timeout 30m .
//
// -faults.only REGEXP runs the faults whose names match; -faults.matrix
// runs each fault against its whole package instead and logs every
// top-level test that failed (the kill matrix a test's retirement is
// argued from).
var (
	faultsOnly   = flag.String("faults.only", "", "run only the seeded faults whose names match this regexp")
	faultsMatrix = flag.Bool("faults.matrix", false, "run each seeded fault against its whole package and log the tests that fail")
)

// seededFault is one corpus entry.
type seededFault struct {
	Name string `json:"name"`
	What string `json:"what"` // what the edit breaks, in the program's terms
	File string `json:"file"` // relative to the module root
	// Original must occur exactly once in File; Replacement takes its place.
	Original    string `json:"original"`
	Replacement string `json:"replacement"`
	Package     string `json:"package"` // as `go test` takes it
	// Tests are the top-level tests (or fuzz targets, whose seeds run as
	// tests) of Package that must fail under the fault.
	Tests []string `json:"tests"`
}

// testRun is the outcome of running some of a package's tests.
type testRun struct {
	failed, passed map[string]bool // top-level tests by outcome
	buildFailed    bool
	output         string // everything the runs printed, for diagnostics
}

// runTests runs the named top-level tests of pkg (every test, fuzz target
// and example when names is nil) under overlay, a `go test -overlay` file
// or "". A test that panics ends its binary, so the tests that did not get
// to run are run again without it until each has an outcome; a test that
// started and never finished counts as failed.
func runTests(t *testing.T, pkg string, names []string, overlay string) testRun {
	t.Helper()
	if names == nil {
		out, err := exec.Command("go", "test", "-list=.", pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("listing the tests of %s: %v\n%s", pkg, err, out)
		}
		for _, w := range strings.Fields(string(out)) {
			if strings.HasPrefix(w, "Test") || strings.HasPrefix(w, "Fuzz") || strings.HasPrefix(w, "Example") {
				names = append(names, w)
			}
		}
	}
	res := testRun{failed: map[string]bool{}, passed: map[string]bool{}}
	for len(names) > 0 && !res.buildFailed {
		started := res.runOnce(pkg, names, overlay)
		var next []string
		for _, name := range names {
			if !res.failed[name] && !res.passed[name] {
				if started[name] {
					res.failed[name] = true
				} else {
					next = append(next, name)
				}
			}
		}
		if len(next) == len(names) && !res.buildFailed {
			t.Fatalf("%s: none of %v ran\n%s", pkg, names, tail(res.output))
		}
		names = next
	}
	return res
}

// runOnce runs the named tests of pkg once, records their outcomes and
// returns the top-level tests that started.
func (res *testRun) runOnce(pkg string, names []string, overlay string) map[string]bool {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = regexp.QuoteMeta(n)
	}
	args := []string{"test", "-json", "-count=1", "-vet=off", "-timeout=3m", "-run=^(" + strings.Join(quoted, "|") + ")$"}
	if overlay != "" {
		args = append(args, "-overlay="+overlay)
	}
	out, _ := exec.Command("go", append(args, pkg)...).CombinedOutput() // failing tests are expected; the events say which
	res.output += string(out)
	res.buildFailed = res.buildFailed || bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]"))
	started := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Test, FailedBuild string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Test == "" || strings.Contains(ev.Test, "/") {
			res.buildFailed = res.buildFailed || ev.Action == "build-fail" || ev.FailedBuild != ""
			continue
		}
		switch ev.Action {
		case "run":
			started[ev.Test] = true
		case "fail":
			res.failed[ev.Test] = true
		case "pass", "skip":
			res.passed[ev.Test] = true
		}
	}
	return started
}

// tail returns the last lines of s.
func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-30):], "\n")
}

func TestSeededFaults(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	var faults []seededFault
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&faults); err != nil {
		t.Fatalf("testdata/faults.json: %v", err)
	}
	if len(faults) < 20 {
		t.Fatalf("the corpus holds %d faults, want at least 20", len(faults))
	}
	only, err := regexp.Compile(*faultsOnly)
	if err != nil {
		t.Fatal(err)
	}
	faults = slices.DeleteFunc(faults, func(f seededFault) bool { return !only.MatchString(f.Name) })

	// Every fault must apply to the tree as it is, before any test runs.
	dir := t.TempDir()
	overlays := make([]string, len(faults))
	byPkg := map[string][]string{}
	for i, f := range faults {
		src, err := os.ReadFile(f.File)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(src, []byte(f.Original)); n != 1 || f.Original == f.Replacement || len(f.Tests) == 0 {
			t.Fatalf("fault %s: its original occurs %d times in %s (want once), changes nothing or names no test", f.Name, n, f.File)
		}
		abs, _ := filepath.Abs(f.File)
		edited := filepath.Join(dir, fmt.Sprintf("%02d.go", i))
		overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: edited}})
		overlays[i] = filepath.Join(dir, fmt.Sprintf("%02d.json", i))
		if os.WriteFile(edited, bytes.Replace(src, []byte(f.Original), []byte(f.Replacement), 1), 0o644) != nil ||
			os.WriteFile(overlays[i], overlay, 0o644) != nil {
			t.Fatalf("fault %s: writing its overlay failed", f.Name)
		}
		for _, name := range f.Tests {
			if !slices.Contains(byPkg[f.Package], name) {
				byPkg[f.Package] = append(byPkg[f.Package], name)
			}
		}
	}

	// The named tests pass on the clean tree: a kill then means the fault.
	if *faultsMatrix {
		clear(byPkg)
	}
	for _, pkg := range slices.Sorted(maps.Keys(byPkg)) {
		res := runTests(t, pkg, byPkg[pkg], "")
		for _, name := range byPkg[pkg] {
			if !res.passed[name] {
				t.Fatalf("clean tree: %s %s did not pass\n%s", pkg, name, tail(res.output))
			}
		}
	}

	for i, f := range faults {
		names := f.Tests
		if *faultsMatrix {
			names = nil
		}
		start := time.Now()
		res := runTests(t, f.Package, names, overlays[i])
		if res.buildFailed {
			t.Errorf("fault %s: %s does not build under it\n%s", f.Name, f.Package, tail(res.output))
			continue
		}
		t.Logf("fault %s (%s, %.1fs): killed by %s", f.Name, f.Package, time.Since(start).Seconds(),
			strings.Join(slices.Sorted(maps.Keys(res.failed)), " "))
		for _, name := range f.Tests {
			if !res.failed[name] {
				t.Errorf("fault %s: %s survived it (%s)", f.Name, name, f.What)
			}
		}
	}
}
