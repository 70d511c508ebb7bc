// Command insightnotesd serves an InsightNotes+ database over HTTP/JSON:
// connection sessions with prepared statements (PREPARE/EXECUTE with `?`
// placeholders over the engine's statement-hash plan cache), ad-hoc
// queries, annotation ingest, and per-tenant admission control.
//
// Endpoints (all JSON):
//
//	POST   /v1/sessions                          {"tenant":"t"} → session
//	DELETE /v1/sessions/{id}
//	POST   /v1/sessions/{id}/prepare             {"sql":"SELECT ... ?"}
//	POST   /v1/sessions/{id}/execute             {"stmt_id":"...","params":[...]}
//	DELETE /v1/sessions/{id}/statements/{stmt}
//	POST   /v1/query                             {"sql":"...","params":[...],"tenant":"t"}
//	POST   /v1/exec                              {"sql":"ALTER TABLE ...","tenant":"t"}
//	POST   /v1/annotations                       {"table":"...","oid":N,"text":"...","author":"..."}
//	GET    /metrics | /v1/metrics                engine + plan-cache + per-tenant stats
//	GET    /healthz
//
// Admission control (-max-concurrent, -queue-depth, -queue-wait) applies
// per tenant: when a tenant's concurrency slots are all busy, up to
// -queue-depth statements wait -queue-wait for a slot; the rest are shed
// immediately with a typed 429.
//
// With -birds N the server preloads the synthetic ornithological
// workload (same generator as the shell and benchmarks); with -wal DIR
// it opens a durable database instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8642", "listen address")
	birds := flag.Int("birds", 0, "preload the synthetic bird workload with N birds (0 = start empty)")
	anns := flag.Int("anns", 10, "average annotations per preloaded bird")
	planCache := flag.Int("plan-cache", 256, "plan cache capacity in statements (0 = no caching)")
	ingestFlush := flag.Int("ingest-flush", 0, "flush summary maintenance as net deltas every N annotation ops (0 or 1 = after every op)")
	walDir := flag.String("wal", "", "directory for the write-ahead log (empty = in-memory)")
	stmtTimeout := flag.Duration("statement-timeout", 0, "per-statement deadline (0 = none)")
	sessionTimeout := flag.Duration("session-timeout", 5*time.Minute, "idle session expiry")
	maxConcurrent := flag.Int("max-concurrent", 64, "per-tenant concurrent statement cap (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 128, "per-tenant admission queue depth")
	queueWait := flag.Duration("queue-wait", time.Second, "max wait for an execution slot")
	flag.Parse()

	db, err := openDB(*birds, *anns, *planCache, *ingestFlush, *walDir, *stmtTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "insightnotesd:", err)
		os.Exit(1)
	}

	srv, err := server.New(server.Config{
		DB:             db,
		SessionTimeout: *sessionTimeout,
		DefaultTenant: server.TenantConfig{
			MaxConcurrent: *maxConcurrent,
			QueueDepth:    *queueDepth,
			QueueWait:     *queueWait,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "insightnotesd:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("insightnotesd listening on http://%s (plan cache %d, admission %d/%d per tenant)\n",
		*addr, *planCache, *maxConcurrent, *queueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Println("\nshutting down...")
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "insightnotesd:", err)
	}

	// Drain order: stop the listener, drain in-flight handlers, then
	// close the engine (joins the ingest flusher, flushes the WAL).
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "insightnotesd: shutdown:", err)
	}
	srv.Close()
	db.Close()
}

func openDB(birds, anns, planCache, ingestFlush int, walDir string, stmtTimeout time.Duration) (*engine.DB, error) {
	if birds > 0 {
		if walDir != "" {
			return nil, fmt.Errorf("-birds preload and -wal are mutually exclusive")
		}
		ds, err := workload.Build(workload.Config{
			Birds:                 birds,
			AvgAnnotationsPerBird: anns,
			SkipSynonyms:          true,
			IngestFlushOps:        ingestFlush,
			PlanCacheSize:         planCache,
		})
		if err != nil {
			return nil, err
		}
		if stmtTimeout > 0 {
			ds.DB.SetStatementTimeout(stmtTimeout)
		}
		fmt.Printf("preloaded %d birds (~%d annotations each)\n", birds, anns)
		return ds.DB, nil
	}
	cfg := engine.Config{
		PageCap:          64,
		PlanCacheSize:    planCache,
		IngestFlushOps:   ingestFlush,
		StatementTimeout: stmtTimeout,
		WALDir:           walDir,
	}
	if walDir != "" {
		return engine.Open(cfg)
	}
	return engine.New(cfg), nil
}
