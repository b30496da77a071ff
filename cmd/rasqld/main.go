// Command rasqld serves a shared RaSQL engine over HTTP/JSON: sessions
// with per-session execution settings, ad-hoc queries, prepared statements
// backed by a plan cache, Prometheus metrics, and graceful drain.
//
// Usage:
//
//	rasqld -demo                      # serve the built-in example graph
//	rasqld -table 'edge=edges.csv:Src int,Dst int,Cost double'
//	rasqld -listen :8080 -max-concurrent 8 -timeout 30s
//
// Endpoints:
//
//	POST /v1/sessions         create a session ({"settings":{...}} optional)
//	DELETE /v1/sessions/{id}  close a session
//	POST /v1/query            {"sql":..., "session_id":..., "settings":{...}}
//	POST /v1/prepare          {"session_id":..., "sql":...}
//	POST /v1/execute          {"session_id":..., "statement_id":...}
//	GET  /metrics             Prometheus text exposition (engine + server)
//	GET  /healthz             process liveness
//	GET  /readyz              503 once draining
//
// Settings fields (per session, overridable per request): "mode" (bsp,
// ssp:k, async), "max_iterations", "timeout_ms" (negative disables the
// deadline), "trace" (off, iterations, full).
//
// On SIGTERM/SIGINT the server stops admitting work (429/503 with
// Retry-After), finishes in-flight queries, writes the final metrics
// exposition (-metrics-out), and exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cli"
	"github.com/rasql/rasql-go/internal/server"
)

func main() {
	var (
		tables     cli.MultiFlag
		listen     = flag.String("listen", ":8080", "HTTP listen address (\":0\" picks a free port)")
		demo       = flag.Bool("demo", false, "register the built-in example graph edge(Src,Dst,Cost)")
		workers    = flag.Int("workers", 0, "simulated workers (default GOMAXPROCS)")
		partitions = flag.Int("partitions", 0, "partitions (default = workers)")
		mode       = flag.String("mode", "", "default fixpoint mode for new sessions: bsp, ssp:k or async")
		maxConc    = flag.Int("max-concurrent", 0, "queries executing at once (default GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "admission queue beyond -max-concurrent (default 2x)")
		timeout    = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		cacheSize  = flag.Int("plan-cache", 256, "compiled-plan cache capacity")
		chaosSpec  = flag.String("chaos", "", "fault injection: seed=N,rate=P[,attempts=K]")
		queryLog   = flag.Bool("query-log", false, "emit one structured JSON log line per finished query on stderr")
		promOut    = flag.String("metrics-out", "", "write the final metrics exposition to this file on drain")
		drainMax   = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	)
	flag.Var(&tables, "table", "name=path:schema (repeatable)")
	flag.Parse()

	chaos, err := cli.ParseChaos(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	if *mode != "" {
		if _, _, err := rasql.ParseEvalMode(*mode); err != nil {
			fatal(err)
		}
	}
	eng := rasql.New(rasql.Config{
		Cluster: rasql.ClusterConfig{Workers: *workers, Partitions: *partitions, Chaos: chaos},
	})
	if err := cli.LoadTables(eng, tables); err != nil {
		fatal(err)
	}
	if *demo {
		eng.MustRegister(demoEdges())
	}
	if *queryLog {
		eng.Observability().SetLogger(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}

	srv := server.New(eng, server.Config{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		DefaultTimeout:  *timeout,
		PlanCacheSize:   *cacheSize,
		DefaultSettings: server.Settings{Mode: *mode},
	})

	// The handler goes in before the address is announced: whoever reads the
	// line below may signal at once, and that signal must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	// Serve returns into errCh when Shutdown closes the listener; main
	// consumes it before exiting.
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rasqld: serving %d tables on http://%s (catalog v%d)\n",
		len(eng.Catalog().Names()), ln.Addr(), eng.CatalogVersion())

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "rasqld: %v: draining (max %v)\n", s, *drainMax)
	case err := <-errCh:
		fatal(err)
	}

	// Stop admitting first so /readyz flips and queued clients get
	// Retry-After, then wait for in-flight queries, then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainMax)
	defer cancel()
	clean := true
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rasqld:", err)
		clean = false
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "rasqld: shutdown:", err)
		clean = false
	}
	<-errCh // Serve has returned http.ErrServerClosed

	if *promOut != "" {
		if err := writeMetrics(*promOut, eng); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rasqld: wrote %s\n", *promOut)
	}
	if !clean {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rasqld: drained cleanly")
}

// writeMetrics flushes the final Prometheus exposition, query log included.
func writeMetrics(path string, eng *rasql.Engine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = eng.Observability().Registry().WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// demoEdges is the weighted example graph from the paper's Example 1, small
// enough that every bundled example query (SSSP, REACH, CC, ...) returns
// instantly; the README quickstart curls against it.
func demoEdges() *rasql.Relation {
	schema := rasql.NewSchema(
		rasql.Col("Src", rasql.KindInt),
		rasql.Col("Dst", rasql.KindInt),
		rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for _, t := range [][3]float64{
		{1, 2, 1}, {1, 3, 4}, {2, 3, 2}, {3, 4, 1}, {4, 2, 5}, {2, 5, 10}, {5, 1, 1},
	} {
		e.Append(rasql.Row{rasql.Int(int64(t[0])), rasql.Int(int64(t[1])), rasql.Float(t[2])})
	}
	return e
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rasqld:", err)
	os.Exit(1)
}
