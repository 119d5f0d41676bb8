// Command autofjd is the Auto-FuzzyJoin serving daemon: it hosts a
// registry of named, compiled join programs behind an HTTP/JSON API. Each
// query is one direct call into the program's table, whose
// generation-keyed result cache answers repeated queries; hot swaps are
// atomic and shutdown is graceful.
//
// Start with a config file:
//
//	autofjd -config autofjd.json
//
// or with a single program straight from flags (the same artifacts the
// autofj CLI produces with -save-program):
//
//	autofjd -addr :8080 -name orgs -program prog.json -left left.csv -column name
//
// Then query it:
//
//	curl 'localhost:8080/v1/programs/orgs/query?q=alpha+reserch+institute'
//	curl -X POST localhost:8080/v1/programs/orgs/query -d '{"query":"alpha reserch institute"}'
//	curl localhost:8080/metrics
//
// Register or hot-swap a program at runtime (traffic keeps flowing; the
// swap is atomic). Over HTTP the program and the reference table travel
// inline: a spec that sets program_path, left_path or snapshot_path gets
// 400, as only the config file and the flags may name the daemon's files:
//
//	curl -X POST localhost:8080/v1/programs/orgs \
//	     -d "{\"program\":$(cat prog2.json),\"left_csv\":$(jq -Rs . left.csv),\"column\":\"name\"}"
//
// Mutate the reference table in place — appends land in the table's
// delta and are answerable immediately, deletes tombstone by index, and
// a background compactor folds the delta into compiled segments once it
// grows past -delta-max rows (answers stay bit-identical throughout):
//
//	curl -X POST localhost:8080/v1/programs/orgs/rows -d '{"records":["new org name"]}'
//	curl -X DELETE localhost:8080/v1/programs/orgs/rows -d '{"indices":[3]}'
//	curl -X POST localhost:8080/v1/programs/orgs/compact
//
// -snapshot names a binary index snapshot: when the file exists the
// daemon boots from it (skipping the compile entirely — no -program or
// -left needed), otherwise it compiles as usual and writes the snapshot
// for the next boot. A snapshot written by a build of another format
// version is compiled over and rewritten when -program and -left are
// given, and refused without them:
//
//	autofjd -addr :8080 -name orgs -snapshot orgs.afjs
//
// The config file is JSON (see internal/serve.Config):
//
//	{
//	  "listen": ":8080",
//	  "programs": [
//	    {"name": "orgs", "program_path": "prog.json",
//	     "left_path": "left.csv", "column": "name",
//	     "snapshot_path": "orgs.afjs"}
//	  ],
//	  "parallelism": 0, "drain_timeout_ms": 5000, "delta_max": 512
//	}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/chu-data-lab/autofuzzyjoin-go/internal/serve"
)

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers, so a connection that never finishes them (a slow or
// stalled client) is dropped instead of holding a goroutine and a socket
// forever; an idle keep-alive connection is closed after idleTimeout.
// Bodies are bounded by size in internal/serve, not by time, so a large
// batch on a slow link still gets through.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "autofjd:", err)
		}
		os.Exit(1)
	}
}

// run starts the daemon and blocks until shutdown. Two test hooks:
// ready (if non-nil) receives the bound address once the server is
// accepting, and shutdown (if non-nil) replaces SIGINT/SIGTERM as the
// shutdown trigger.
func run(args []string, stderr io.Writer, ready chan<- string, shutdown <-chan struct{}) error {
	fs := flag.NewFlagSet("autofjd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath = fs.String("config", "", "daemon config JSON (see internal/serve.Config)")
		addr       = fs.String("addr", "", "listen address (overrides the config's listen)")
		name       = fs.String("name", "", "register one program under this name (with -program and -left)")
		progPath   = fs.String("program", "", "program JSON for -name (from autofj -save-program)")
		leftPath   = fs.String("left", "", "reference table CSV for -name")
		column     = fs.String("column", "", "join key column for -name (default: first column)")
		snapshot   = fs.String("snapshot", "", "binary index snapshot for -name: loaded when it exists, written after compiling otherwise")
		parallel   = fs.Int("parallelism", 0, "worker goroutines per batch (0 = all CPUs)")
		deltaMax   = fs.Int("delta-max", 0, "delta rows before background compaction (0 = default, negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg serve.Config
	if *configPath != "" {
		var err error
		if cfg, err = serve.LoadConfig(*configPath); err != nil {
			return err
		}
	}
	if *name != "" {
		// A bare -snapshot boot needs no program or reference table: the
		// compiled index IS the artifact. Compiling fresh still needs both.
		snapExists := false
		if *snapshot != "" {
			if _, err := os.Stat(*snapshot); err == nil {
				snapExists = true
			}
		}
		if (*progPath == "" || *leftPath == "") && !snapExists {
			return errors.New("-name needs -program and -left (or an existing -snapshot)")
		}
		cfg.Programs = append(cfg.Programs, serve.ProgramSpec{
			Name:         *name,
			ProgramPath:  *progPath,
			LeftPath:     *leftPath,
			Column:       *column,
			SnapshotPath: *snapshot,
		})
	}
	if len(cfg.Programs) == 0 {
		fs.Usage()
		return errors.New("no programs: give -config, or -name with -program and -left")
	}
	if *addr != "" {
		cfg.Listen = *addr
	}
	if *parallel != 0 {
		cfg.Parallelism = *parallel
	}
	if *deltaMax != 0 {
		cfg.DeltaMax = *deltaMax
	}

	reg := serve.NewRegistry(cfg, serve.NewMetrics(time.Now()))
	srv := serve.NewServer(reg)
	for _, spec := range cfg.Programs {
		if err := reg.Register(spec); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "autofjd: program %q ready\n", spec.Name)
	}
	srv.SetReady(true)

	// The handler is installed before the listener exists: once a client
	// can connect, a SIGTERM always drains instead of killing the process.
	// Selecting on the signal channel directly (nil when the caller drives
	// shutdown, so that arm never fires) avoids a forwarder goroutine that
	// would stay parked on the signal receive forever when the server exits
	// through the error path instead.
	var sig chan os.Signal
	if shutdown == nil {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
	}

	ln, err := net.Listen("tcp", cfg.ListenAddr())
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	//autofj:leak-ok errc is buffered (cap 1) and Serve returns once the server is shut down or closed, so the sender always exits
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "autofjd: serving %d program(s) on %s\n", len(cfg.Programs), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err // listener failed before any shutdown request
	case <-sig:
	case <-shutdown:
	}

	// Graceful drain: stop accepting and let in-flight handlers finish,
	// then close the registry (which waits for admitted table calls and
	// stops the compactor) — all bounded by the configured deadline.
	fmt.Fprintln(stderr, "autofjd: draining")
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout())
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	if err := reg.Close(ctx); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && shutdownErr == nil {
		shutdownErr = err
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	fmt.Fprintln(stderr, "autofjd: stopped")
	return nil
}
