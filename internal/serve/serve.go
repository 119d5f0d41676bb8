// Package serve is the network serving tier of Auto-FuzzyJoin: a
// registry of named, compiled join programs behind an HTTP/JSON API.
//
// The design extends the learn-once / serve-many split one level up the
// stack. A Registry holds one entry per program name; each entry owns an
// atomic pointer to its compiled state (a mutable core.Table: immutable
// compiled segments plus a delta). A query validates its arity, takes one
// slot of a GOMAXPROCS-sized in-flight bound, and calls the table
// directly. Re-registering a name compiles the new program off to the
// side and swaps the pointer — in-flight queries finish on the table they
// started with, so a hot swap never drops traffic. Reference rows also
// mutate IN PLACE (AddRows/RemoveRows, the /rows endpoints): each
// mutation bumps the table's generation, and a background compactor folds
// accumulated deltas into compiled segments once they reach
// Config.DeltaMax.
//
// Results are bit-identical to a full recompile of the current reference
// rows: the data path only ever reaches the table through MatchBatchAt
// (the same code path as Table.Match). This package keeps no answer of
// its own: the one result cache is the table's (core.Options.
// QueryCacheSize), which stores the exact Match values keyed by the exact
// query bytes plus the table generation — a row mutation bumps the
// generation and a swap replaces the table, so neither can ever serve a
// stale answer.
//
// A program can also boot from a binary table snapshot (ProgramSpec.
// SnapshotPath): loading one skips program decoding and index compilation
// entirely, turning daemon restarts from a recompile into a bulk read.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/core"
	"github.com/chu-data-lab/autofuzzyjoin-go/internal/dataset"
)

// Errors of the query path. Handlers map these to HTTP statuses.
var (
	ErrUnknownProgram = errors.New("serve: unknown program")
	ErrShuttingDown   = errors.New("serve: shutting down")
	// ErrOverloaded refuses a query when every table slot is busy and
	// the queue of callers waiting for one is full; retry later.
	ErrOverloaded = errors.New("serve: overloaded, retry later")
)

// ProgramSpec names one program and says where its pieces come from.
// Inline fields win over path fields, so the admin endpoint can POST a
// fully self-contained spec while a config file references files on disk.
type ProgramSpec struct {
	Name string `json:"name"`
	// Program is the inline program JSON (the Program.Encode format);
	// ProgramPath reads the same bytes from a file.
	Program     json.RawMessage `json:"program,omitempty"`
	ProgramPath string          `json:"program_path,omitempty"`
	// LeftCSV is the inline reference table (CSV with a header row);
	// LeftPath reads it from a file.
	LeftCSV  string `json:"left_csv,omitempty"`
	LeftPath string `json:"left_path,omitempty"`
	// Column is the join key column of a single-column program (default:
	// first column). Multi-column programs use every column.
	Column string `json:"column,omitempty"`
	// SnapshotPath points at a binary table snapshot (Table.SaveFile). If
	// the file exists it is loaded instead of compiling program+left — a
	// restart becomes a bulk read. If it does not exist, the program is
	// compiled as usual and the snapshot is written for the next boot. A
	// file that exists but fails validation is a hard, descriptive error:
	// silently recompiling would mask corruption. A file of another format
	// version is a stale cache instead: a spec that also gives the program
	// and the reference table compiles them and rewrites it.
	SnapshotPath string `json:"snapshot_path,omitempty"`
}

// Config is the daemon configuration (the -config file of autofjd).
// Durations are plain integers with the unit in the field name so the
// file stays hand-editable JSON.
type Config struct {
	// Listen is the HTTP address (default ":8080").
	Listen string `json:"listen,omitempty"`
	// Programs are compiled and registered at startup.
	Programs []ProgramSpec `json:"programs,omitempty"`
	// Parallelism bounds matcher compilation and batch fan-out
	// (0 = all CPUs).
	Parallelism int `json:"parallelism,omitempty"`
	// DrainTimeoutMS bounds graceful shutdown (0 = default 5000ms).
	DrainTimeoutMS int `json:"drain_timeout_ms,omitempty"`
	// DeltaMax is the per-program delta size that triggers background
	// compaction (0 = default 512, negative = automatic compaction off —
	// deltas then only fold on explicit /compact calls).
	DeltaMax int `json:"delta_max,omitempty"`
}

// Defaults of the Config knobs.
const (
	DefaultListen       = ":8080"
	DefaultDrainTimeout = 5 * time.Second
	DefaultDeltaMax     = 512
)

// ListenAddr returns the HTTP address to bind, defaulted.
func (c Config) ListenAddr() string {
	if c.Listen == "" {
		return DefaultListen
	}
	return c.Listen
}

// DrainTimeout returns the graceful-shutdown deadline.
func (c Config) DrainTimeout() time.Duration {
	if c.DrainTimeoutMS <= 0 {
		return DefaultDrainTimeout
	}
	return time.Duration(c.DrainTimeoutMS) * time.Millisecond
}

func (c Config) deltaMax() int {
	switch {
	case c.DeltaMax < 0:
		return -1
	case c.DeltaMax == 0:
		return DefaultDeltaMax
	}
	return c.DeltaMax
}

// LoadConfig parses a daemon config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// resolve loads the spec's serving table: from the binary snapshot when
// one exists, otherwise by loading program+reference and compiling (and
// writing the snapshot for next time, when a path is configured). It is
// the slow path — callers run it outside any lock so serving continues
// while a replacement resolves.
func (s ProgramSpec) resolve(opt core.Options) (*compiledProgram, error) {
	if s.Name == "" {
		return nil, errors.New("serve: program spec needs a name")
	}
	if s.SnapshotPath != "" {
		if _, err := os.Stat(s.SnapshotPath); err == nil {
			tab, err := core.LoadTableFile(s.SnapshotPath, opt)
			if err == nil {
				return &compiledProgram{name: s.Name, table: tab}, nil
			}
			compilable := (len(s.Program) > 0 || s.ProgramPath != "") && (s.LeftCSV != "" || s.LeftPath != "")
			if !errors.Is(err, core.ErrSnapshotVersion) || !compilable {
				return nil, fmt.Errorf("serve: program %q: snapshot %s: %w", s.Name, s.SnapshotPath, err)
			}
		}
	}
	progData := []byte(s.Program)
	if len(progData) == 0 {
		if s.ProgramPath == "" {
			return nil, fmt.Errorf("serve: program %q: need program, program_path, or an existing snapshot_path", s.Name)
		}
		var err error
		if progData, err = os.ReadFile(s.ProgramPath); err != nil {
			return nil, err
		}
	}
	prog, err := core.DecodeProgram(progData)
	if err != nil {
		return nil, fmt.Errorf("serve: program %q: %w", s.Name, err)
	}
	var left dataset.Table
	if s.LeftCSV != "" {
		if left, err = dataset.ReadCSV(strings.NewReader(s.LeftCSV)); err != nil {
			return nil, fmt.Errorf("serve: program %q reference: %w", s.Name, err)
		}
	} else {
		if s.LeftPath == "" {
			return nil, fmt.Errorf("serve: program %q: need left_csv or left_path", s.Name)
		}
		if left, err = ReadCSVFile(s.LeftPath); err != nil {
			return nil, err
		}
	}
	tab, err := CompileTable(prog, left, s.Column, opt)
	if err != nil {
		return nil, fmt.Errorf("serve: program %q: %w", s.Name, err)
	}
	if s.SnapshotPath != "" {
		if err := tab.SaveFile(s.SnapshotPath); err != nil {
			return nil, fmt.Errorf("serve: program %q: writing snapshot: %w", s.Name, err)
		}
	}
	return &compiledProgram{name: s.Name, table: tab}, nil
}
