// Command ghsom-serve serves trained pipelines as a line-rate detection
// service: NDJSON over HTTP, or NDJSON stdin→stdout. Concurrent requests
// are coalesced into micro-batches — each model runs up to -parallelism
// flush loops at once, each flushing as soon as it is free, up to -batch
// records, so requests that arrive while every loop is busy share the
// next flush — and each micro-batch runs as one merged DetectMergedCtx
// pass on the parallel worker pool, so many small requests cost close
// to what one large request does and small requests use every core.
//
// The server hosts a registry of named models with atomic hot-swap:
// POST /model loads a new envelope (binary v3) under a name without
// interrupting traffic — in-flight batches finish on the pipeline they
// started with, and the next batch picks up the new one.
// Requests select a model with ?model=NAME (default "default").
//
// HTTP endpoints:
//
//	POST /detect   body: one JSON kdd record per line (NDJSON), or — with
//	               Content-Type: application/x-ghsom-columnar — a stream
//	               of columnar batch frames (see internal/kdd, GHSOMWB1).
//	               The response is one JSON prediction per line, in
//	               order. Each columnar frame is one micro-batcher job,
//	               admitted, shed and counted like an NDJSON body, and
//	               its verdicts stream out before the next frame is
//	               read. ?model=NAME selects a registry entry.
//	POST /model    body: a pipeline envelope; loads (or hot-swaps)
//	               ?name=NAME (default "default") atomically.
//	DELETE /model  unloads ?name=NAME (the default model cannot be
//	               unloaded, only replaced).
//	GET  /models   JSON listing of the registry: name, envelope version,
//	               model shape, arena footprint, per-model serve stats.
//	GET  /stats    JSON batching/latency/throughput counters of the
//	               model selected by ?model=NAME, plus worker-pool
//	               gauges (busy/idle workers, queue depth, queue-wait
//	               aggregates) and the overload counters (admitted,
//	               shed, deadline misses, quarantined jobs, last error).
//	GET  /healthz  readiness: 200 once the initial model is loaded and
//	               the server is not draining; 503 otherwise.
//	GET  /livez    liveness: 200 for the whole process lifetime,
//	               including drain.
//
// Every response carries X-GHSOM-Instance: the server's stable identity
// (-instance, default hostname:port), so coordinators such as
// ghsom-gateway can attribute replies and health transitions to
// replicas.
//
// # Overload hardening
//
// Admission is bounded and deadline-aware: each request carries an
// absolute deadline — from the X-GHSOM-Deadline-Ms header, the request
// context, or the -default-timeout flag — and is rejected up front with
// 429 + Retry-After when the admission queue is full or the deadline has
// already passed; jobs whose deadline expires while queued are dropped
// before any dataplane work is spent on them. Both wire formats go
// through this one queue: a columnar frame sheds like an NDJSON body,
// and a frame shed mid-stream ends the response. The Retry-After hint is
// derived from observed queue pressure (estimated backlog drain time,
// clamped to [1, 30] seconds), so clients — and the gateway's backoff —
// wait proportionally to real load. One malformed or poisoned record
// fails only its own request (per-job isolation plus a recover() barrier
// around the dataplane), never co-batched clients or the process. On
// SIGTERM/SIGINT the server flips /healthz to 503, stops admitting (503
// on new work), drains in-flight batches within -drain-grace, and exits;
// POST /model hot-swaps complete even during drain. See the README's
// "Operational hardening" section.
//
// With -pprof the stdlib profiling endpoints are mounted under
// /debug/pprof (CPU, heap, mutex, block) for diagnosing scaling stalls
// in production; they are off by default. With -faults (or GHSOM_FAULTS)
// the named fault-injection points of internal/faultinject are armed for
// chaos drills.
//
// Usage:
//
//	ghsom-serve -model model.bin -addr :8741
//	ghsom-serve -model model.bin -stdin < records.ndjson > verdicts.ndjson
//	ghsom-serve -example   # print a sample request record
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ghsom"
	"ghsom/internal/anomaly"
	"ghsom/internal/faultinject"
	"ghsom/internal/kdd"
	"ghsom/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ghsom-serve:", err)
		os.Exit(1)
	}
}

// defaultInstance derives the stable instance identity when -instance is
// not given: hostname:port of the listen address, so two replicas on one
// host stay distinguishable.
func defaultInstance(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		port = addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if h, err := os.Hostname(); err == nil {
			host = h
		} else {
			host = "localhost"
		}
	}
	return net.JoinHostPort(host, port)
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("ghsom-serve", flag.ContinueOnError)
	modelPath := fs.String("model", "model.bin", "trained pipeline file")
	addr := fs.String("addr", ":8741", "HTTP listen address")
	instance := fs.String("instance", "", "stable instance identity surfaced in X-GHSOM-Instance and /stats (default hostname:port)")
	maxBatch := fs.Int("batch", 256, "micro-batch flush size (records)")
	par := fs.Int("parallelism", 0, "detection worker bound: workers per dataplane pass and concurrent micro-batch flushes per model (0 = GOMAXPROCS)")
	useStdin := fs.Bool("stdin", false, "serve NDJSON records from stdin to stdout instead of HTTP")
	useMmap := fs.Bool("mmap", false, "mmap the model file: the weight arena serves as views of the page cache instead of heap copies")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "cap on one /detect request body in bytes (413 beyond)")
	maxModel := fs.Int64("max-model", serve.DefaultMaxModelBytes, "cap on one POST /model envelope in bytes (413 beyond)")
	queueCap := fs.Int("queue", serve.DefaultQueueCap, "admission queue capacity in jobs per model; a full queue sheds with 429")
	defaultTimeout := fs.Duration("default-timeout", serve.DefaultJobTimeout, "deadline given to requests that carry none (X-GHSOM-Deadline-Ms overrides; 0 = no deadline)")
	drainGrace := fs.Duration("drain-grace", serve.DefaultDrainGrace, "bound on draining in-flight work after SIGTERM")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "http.Server ReadTimeout (whole-request-read bound)")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (whole-response-write bound)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout (keep-alive reap)")
	faults := fs.String("faults", "", "arm fault-injection points, e.g. 'dataplane-latency=latency:5ms,decode-error=error' (see internal/faultinject)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof profiling endpoints (CPU, heap, mutex, block profiles)")
	example := fs.Bool("example", false, "print one example request record as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *example {
		return printExample(stdout)
	}
	if *maxBatch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", *maxBatch)
	}
	if *maxBody < 1 || *maxModel < 1 {
		return fmt.Errorf("-max-body and -max-model must be >= 1 byte")
	}
	if *queueCap < 1 {
		return fmt.Errorf("-queue must be >= 1, got %d", *queueCap)
	}
	if *defaultTimeout < 0 || *drainGrace <= 0 {
		return fmt.Errorf("-default-timeout must be >= 0 and -drain-grace positive")
	}
	if set, err := faultinject.ArmFromEnv(); err != nil {
		return err
	} else if set {
		fmt.Fprintf(os.Stderr, "ghsom-serve: fault injection armed from %s\n", faultinject.EnvVar)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "ghsom-serve: fault injection armed from -faults")
	}

	pipe, err := ghsom.LoadPipelineFile(*modelPath, *useMmap)
	if err != nil {
		return err
	}
	pipe.SetParallelism(*par)
	if *useMmap {
		fmt.Fprintf(os.Stderr, "ghsom-serve: model mapped, %d bytes page-cache shared\n", pipe.MappedBytes())
	}

	if *useStdin {
		return serveStdin(pipe, *maxBatch, stdin, stdout)
	}

	if *instance == "" {
		*instance = defaultInstance(*addr)
	}
	reg := serve.NewRegistry(serve.Config{
		Instance:       *instance,
		MaxBatch:       *maxBatch,
		Parallelism:    *par,
		QueueCap:       *queueCap,
		DefaultTimeout: *defaultTimeout,
		MaxBody:        *maxBody,
		MaxModel:       *maxModel,
		Pprof:          *pprofOn,
	})
	if _, _, err := reg.Swap(serve.DefaultModelName, pipe); err != nil {
		reg.Close()
		return err
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           reg.Mux(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// SIGTERM/SIGINT begin the drain sequence instead of killing the
	// process mid-batch: readiness flips to 503, admission closes, and
	// in-flight work gets -drain-grace to finish.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ghsom-serve: %s listening on %s (batch=%d queue=%d timeout=%v)\n",
		*instance, *addr, *maxBatch, *queueCap, *defaultTimeout)
	select {
	case err := <-errCh:
		reg.Close()
		return err
	case <-sigCtx.Done():
		stop() // restore default signal behavior: a second SIGTERM kills
		fmt.Fprintf(os.Stderr, "ghsom-serve: signal received, draining (grace %v)\n", *drainGrace)
		return drainAndShutdown(reg, srv.Shutdown, *drainGrace)
	}
}

// drainAndShutdown runs the graceful exit sequence: readiness flips to
// 503 and admission closes (BeginDrain), in-flight handlers get grace to
// finish via the server's Shutdown, then the batchers flush whatever the
// final drain left and stop. Factored over a shutdown func so tests can
// drive it against an httptest server.
func drainAndShutdown(reg *serve.Registry, shutdown func(context.Context) error, grace time.Duration) error {
	reg.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := shutdown(ctx)
	reg.Close()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}

// printExample emits a canonical normal connection record clients can
// template their NDJSON requests on.
func printExample(w io.Writer) error {
	rec := kdd.Record{
		Duration: 1, Protocol: "tcp", Service: "http", Flag: "SF",
		SrcBytes: 230, DstBytes: 8150, LoggedIn: true,
		Count: 8, SrvCount: 8, SameSrvRate: 1,
		DstHostCount: 30, DstHostSrvCount: 30, DstHostSameSrvRate: 1,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rec)
}

// stdinStats is the minimal batch accounting behind the stdin path's
// exit summary; the HTTP path's full counter set lives in internal/serve.
type stdinStats struct {
	start      time.Time
	batches    int64
	records    int64
	sumLatency time.Duration
}

// serveStdin is the single-producer dataplane: NDJSON records are read
// from stdin in chunks of up to maxBatch, detected through DetectBatch
// with reused output buffers (micro-batching with one client degenerates
// to chunking, so no timer is involved), and written as NDJSON
// predictions in input order. A per-batch summary lands on stderr.
func serveStdin(pipe *ghsom.Pipeline, maxBatch int, stdin io.Reader, stdout io.Writer) error {
	dec := kdd.NewRecordParser(bufio.NewReader(stdin))
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	batch := make([]kdd.Record, 0, maxBatch)
	var preds []ghsom.Prediction
	stats := stdinStats{start: time.Now()}
	line := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		start := time.Now()
		var err error
		preds, err = pipe.DetectBatch(batch, preds)
		if err != nil {
			return fmt.Errorf("detect batch ending at record %d: %w", line, err)
		}
		stats.batches++
		stats.records += int64(len(batch))
		stats.sumLatency += time.Since(start)
		for i := range preds {
			// Append into the writer's free space: no copy when it fits.
			v, err := anomaly.AppendPredictionJSON(out.AvailableBuffer(), &preds[i])
			if err != nil {
				return fmt.Errorf("record %d: %w", line-len(preds)+i+1, err)
			}
			if _, err := out.Write(v); err != nil {
				return err
			}
		}
		batch = batch[:0]
		return nil
	}
	for {
		var rec kdd.Record
		err := dec.Next(&rec)
		if err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("record %d: %w", line+1, err)
		}
		line++
		batch = append(batch, rec)
		if len(batch) >= maxBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	var rps, meanMs float64
	if up := time.Since(stats.start); up > 0 {
		rps = float64(stats.records) / up.Seconds()
	}
	if stats.batches > 0 {
		meanMs = (stats.sumLatency / time.Duration(stats.batches)).Seconds() * 1e3
	}
	fmt.Fprintf(os.Stderr, "ghsom-serve: %d records in %d batches, %.0f records/sec, mean batch %.2fms\n",
		stats.records, stats.batches, rps, meanMs)
	return nil
}
