// Command insightnotes is an interactive shell over the InsightNotes+
// engine. It can start empty or preload the synthetic ornithological
// workload, and accepts the engine's SQL dialect plus a few meta
// commands:
//
//	\help               show help
//	\tables             list tables
//	\explain <query>    show the optimized plan without running it
//	\stats <table>      show maintained summary statistics
//	\metrics            show engine query telemetry (incl. WAL under -wal)
//	\load <birds> <avg> load/replace the bird workload (in-memory only)
//	\save <path>        write a crash-safe logical snapshot
//	\checkpoint         force a checkpoint and compact the WAL (-wal)
//	\quit               exit
//
// With -wal DIR the shell opens a durable database: every mutation is
// logged before it applies, commits are forced under the -group-commit
// window, and a restart with the same -wal DIR recovers the committed
// state.
//
// -ingest-flush N sets how many annotation operations the engine lets
// accumulate before it maintains their summaries: each annotation is
// logged and stored immediately (durability does not depend on N) and
// classifier/snippet/cluster updates and index re-keys are applied as
// net deltas every N operations — or sooner, forced by any read. Query
// results do not depend on N; the ingest: line of \metrics shows the
// amortization.
//
// Everything else is executed as a statement: SELECT (results and
// propagated summaries are printed), EXPLAIN [ANALYZE] SELECT ...,
// ALTER TABLE ... ADD [INDEXABLE], and ZOOM IN ON ...
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

func main() {
	birds := flag.Int("birds", 100, "preloaded bird count (0 = start empty)")
	anns := flag.Int("anns", 10, "average annotations per bird")
	poolPages := flag.Int("pool", 0, "buffer pool size in frames (0 = unbounded resident pages)")
	walDir := flag.String("wal", "", "directory for the write-ahead log and checkpoints (empty = in-memory only)")
	groupCommit := flag.Duration("group-commit", 0, "group-commit window, e.g. 500us (0 = fsync every commit; requires -wal)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint after every N logged operations (0 = never; requires -wal)")
	ingestFlush := flag.Int("ingest-flush", 0, "flush summary maintenance as net deltas every N annotation ops (0 or 1 = after every op)")
	batchSize := flag.Int("batch-size", 0, "row capacity of the batches operators exchange (0 or 1 = one row per exchange)")
	flag.Parse()

	var db *engine.DB
	load := func(nBirds, avg int) error {
		if *walDir != "" {
			var err error
			db, err = engine.Open(engine.Config{
				WALDir:            *walDir,
				GroupCommitWindow: *groupCommit,
				CheckpointEveryN:  *checkpointEvery,
				BufferPoolPages:   *poolPages,
				IngestFlushOps:    *ingestFlush,
				MaxBatchSize:      *batchSize,
			})
			if err != nil {
				return err
			}
			replayed := int64(0)
			if m := db.Metrics().WAL; m != nil {
				replayed = m.RecoveryReplayedRecords
			}
			fmt.Printf("durable database at %s: %d tables, %d annotations (replayed %d wal records)\n",
				*walDir, len(db.Catalog().TableNames()), db.AnnotationCount(), replayed)
			return nil
		}
		if nBirds == 0 {
			db = engine.New(engine.Config{BufferPoolPages: *poolPages, IngestFlushOps: *ingestFlush,
				MaxBatchSize: *batchSize})
			fmt.Println("started with an empty database")
			return nil
		}
		ds, err := workload.Build(workload.Config{
			Seed: 1, Birds: nBirds, AvgAnnotationsPerBird: avg,
			BufferPoolPages: *poolPages, IngestFlushOps: *ingestFlush,
			MaxBatchSize: *batchSize,
		})
		if err != nil {
			return err
		}
		db = ds.DB
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			return err
		}
		fmt.Printf("loaded %d birds, %d synonyms, %d annotations; Summary-BTree on ClassBird1\n",
			nBirds, len(ds.Syns), db.AnnotationCount())
		return nil
	}
	if err := load(*birds, *anns); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Close flushes the WAL so a clean \quit leaves nothing to replay.
	defer func() { db.Close() }()

	// Ctrl-C cancels the in-flight statement (via ExecContext) instead of
	// killing the shell; at the prompt it is a no-op with a hint.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)

	fmt.Println(`InsightNotes+ shell — \help for help, \quit to exit (Ctrl-C cancels a running query)`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("insightnotes> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, `\`) {
			if !meta(db, line, load, *walDir) {
				return
			}
			continue
		}
		start := time.Now()
		if q, analyze, isExplain := explainPrefix(line); isExplain {
			if analyze {
				ap, err := withInterrupt(sigCh, func(ctx context.Context) (*engine.AnalyzedPlan, error) {
					return db.ExplainAnalyzeContext(ctx, q, nil)
				})
				if err != nil {
					reportError(err, start)
					continue
				}
				fmt.Print(ap.String())
			} else {
				plan, err := db.Explain(q, nil)
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Print(plan)
			}
			continue
		}
		res, err := withInterrupt(sigCh, func(ctx context.Context) (*engine.Result, error) {
			return db.ExecContext(ctx, line)
		})
		if err != nil {
			reportError(err, start)
			continue
		}
		if len(res.Columns) > 0 {
			fmt.Print(res.String())
		}
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
	}
}

// explainPrefix recognizes an EXPLAIN [ANALYZE] statement prefix
// (case-insensitive) and returns the underlying query.
func explainPrefix(line string) (query string, analyze, ok bool) {
	rest, ok := trimKeyword(line, "explain")
	if !ok {
		return "", false, false
	}
	if r, isAnalyze := trimKeyword(rest, "analyze"); isAnalyze {
		return r, true, true
	}
	return rest, false, true
}

// trimKeyword strips one leading keyword followed by whitespace.
func trimKeyword(s, kw string) (string, bool) {
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return s, false
	}
	if rest := s[len(kw):]; rest[0] == ' ' || rest[0] == '\t' {
		return strings.TrimSpace(rest), true
	}
	return s, false
}

func reportError(err error, start time.Time) {
	if errors.Is(err, context.Canceled) {
		fmt.Printf("cancelled (%v)\n", time.Since(start).Round(time.Microsecond))
	} else {
		fmt.Println("error:", err)
	}
}

// withInterrupt runs one statement under a context cancelled by SIGINT.
// Interrupts delivered while the shell was idle are drained first so a
// stale Ctrl-C cannot kill the next statement.
func withInterrupt[T any](sigCh <-chan os.Signal, run func(context.Context) (T, error)) (T, error) {
	select {
	case <-sigCh:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-done:
		}
	}()
	return run(ctx)
}

// meta handles backslash commands; it returns false to exit.
func meta(db *engine.DB, line string, load func(int, int) error, walDir string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\help`:
		fmt.Println(`statements:
  SELECT ... FROM ... [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n] [WITHOUT SUMMARIES]
    summary expressions: r.$.getSummaryObject('Inst').getLabelValue('Label'),
    $.getSize(), obj.containsUnion('kw', ...), obj.getSnippet(i), obj.getGroupSize(i)
  EXPLAIN SELECT ...          show the optimized plan without running it
  EXPLAIN ANALYZE SELECT ...  run it, annotating each operator with actuals
  ALTER TABLE t ADD [INDEXABLE] instance | ALTER TABLE t DROP instance
  ZOOM IN ON table.instance [LABEL 'label'] [WHERE expr]
meta: \tables  \stats <table>  \metrics  \explain <query>  \load <birds> <avg>
      \save <path>  \checkpoint  \quit
  (\metrics adds a cache: hit/miss/phys/evict line when the shell was
   started with -pool N, and a wal: line under -wal DIR; \checkpoint
   snapshots the durable state and compacts the log)`)
	case `\tables`:
		for _, name := range db.Catalog().TableNames() {
			t, _ := db.Table(name)
			insts := make([]string, 0, len(t.Instances))
			for _, si := range t.Instances {
				label := si.Name
				if db.SummaryIndex(name, si.Name) != nil {
					label += " [indexed]"
				}
				insts = append(insts, label)
			}
			fmt.Printf("  %-12s %6d tuples  instances: %s\n", name, t.Len(), strings.Join(insts, ", "))
		}
	case `\stats`:
		if len(fields) < 2 {
			fmt.Println("usage: \\stats <table>")
			return true
		}
		t, err := db.Table(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, si := range t.Instances {
			fmt.Printf("  %s: %s\n", si.Name, t.Stats(si.Name))
		}
	case `\metrics`:
		fmt.Print(db.Metrics().String())
	case `\explain`:
		q := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
		plan, err := db.Explain(q, nil)
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		fmt.Print(plan)
	case `\load`:
		if walDir != "" {
			fmt.Println("\\load replaces the database with an ephemeral in-memory workload " +
				"and would abandon the durable state; restart without -wal to use it")
			return true
		}
		n, avg := 100, 10
		if len(fields) > 1 {
			n, _ = strconv.Atoi(fields[1])
		}
		if len(fields) > 2 {
			avg, _ = strconv.Atoi(fields[2])
		}
		if err := load(n, avg); err != nil {
			fmt.Println("error:", err)
		}
	case `\save`:
		if len(fields) < 2 {
			fmt.Println("usage: \\save <path>")
			return true
		}
		if err := db.SaveFile(fields[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("snapshot written to", fields[1])
		}
	case `\checkpoint`:
		ok, err := db.Checkpoint()
		switch {
		case err != nil:
			fmt.Println("error:", err)
		case !ok:
			fmt.Println("checkpoint refused (no -wal or an open transaction)")
		default:
			fmt.Println("checkpoint written; wal compacted")
		}
	default:
		fmt.Printf("unknown command %s (\\help for help)\n", fields[0])
	}
	return true
}
