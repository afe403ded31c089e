// Package serve is the single-node serving tier behind cmd/ghsom-serve:
// a registry of named models with atomic hot-swap, a deadline-aware
// micro-batcher per model, bounded admission with 429/503 shedding, and
// the HTTP surface (/detect, /model, /models, /stats, /healthz, /livez).
//
// It lives in an importable package (rather than inside the command) so
// the distributed tier can compose with it: the cluster package's chaos
// tests and BenchmarkGatewayDetect spin real replicas up in-process, and
// servebench serves through it, all without shelling out.
//
// Each server carries a stable instance identity (Config.Instance),
// surfaced as the X-GHSOM-Instance response header on every endpoint and
// in the /stats document, so a coordinator and cluster-wide rollups can
// attribute state to replicas.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	netpprof "net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ghsom"
	"ghsom/internal/anomaly"
	"ghsom/internal/faultinject"
	"ghsom/internal/kdd"
	"ghsom/internal/parallel"
	"ghsom/internal/serveq"
)

// Admission and lifecycle defaults.
const (
	DefaultQueueCap   = 256
	DefaultJobTimeout = 30 * time.Second
	DefaultDrainGrace = 15 * time.Second
)

// DefaultMaxModelBytes and DefaultMaxBodyBytes cap one uploaded envelope
// and one /detect request body unless Config overrides them.
const (
	DefaultMaxModelBytes = 1 << 30
	DefaultMaxBodyBytes  = 64 << 20
)

// DefaultModelName is the registry entry served when a request names no
// model.
const DefaultModelName = "default"

// DeadlineHeader lets clients carry an explicit time budget: the value
// is a positive integer of milliseconds from arrival. The gateway
// rewrites it per hop with the remaining budget, so a request's deadline
// survives retries and replica hops.
const DeadlineHeader = "X-GHSOM-Deadline-Ms"

// InstanceHeader carries the server's stable instance identity on every
// response, so upstream coordinators can attribute replies (and health
// transitions) to replicas even behind port-forwarding or proxies.
const InstanceHeader = "X-GHSOM-Instance"

// Config bundles the per-server knobs the registry hands to every
// batcher it creates.
type Config struct {
	// Instance is the server's stable identity (the -instance flag,
	// defaulting to hostname:port), echoed on every response and in
	// /stats so cluster rollups can attribute state to replicas.
	Instance string
	// MaxBatch is the record count at which a flush stops taking queued
	// jobs; a single larger job still flushes whole.
	MaxBatch int
	// Deprecated: ignored; the batcher flushes as soon as a flush loop is free.
	FlushEvery time.Duration
	// Parallelism is the detection worker bound (0 = GOMAXPROCS): it
	// bounds each dataplane pass's workers and the number of micro-batch
	// flushes one model runs at once.
	Parallelism int
	// Deprecated: ignored; the BMU engine has a single f64 precision.
	Precision ghsom.Precision
	// QueueCap bounds each model's admission queue; beyond it requests
	// shed with 429 instead of building an unbounded backlog.
	QueueCap int
	// DefaultTimeout is the deadline given to requests that carry none.
	// Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxBody and MaxModel cap one /detect body and one uploaded
	// envelope; requests beyond them get 413.
	MaxBody  int64
	MaxModel int64
	// Pprof exposes /debug/pprof on the mux when set (-pprof flag).
	Pprof bool
}

// modelEntry is one hosted model: its micro-batcher (whose pipeline
// pointer hot-swaps atomically) plus registry metadata.
type modelEntry struct {
	name     string
	batcher  *batcher
	loadedAt time.Time
	swaps    int
}

// Registry hosts the named models behind the HTTP surface. Lookups take
// a read lock; loading or swapping a model takes the write lock only to
// update the map and metadata — the swap itself is one atomic pointer
// store on the entry's batcher, so detection traffic never blocks on a
// model upload.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*modelEntry
	cfg     Config
	// ready flips true when the first model lands; until then /healthz
	// reports 503 so load balancers do not route to a server that cannot
	// serve.
	ready atomic.Bool
	// draining flips true at the start of the SIGTERM drain sequence:
	// /healthz reports 503, new detection work sheds with 503, queued
	// and in-flight work still completes. /livez stays 200 throughout.
	draining  atomic.Bool
	drainOnce sync.Once
}

// NewRegistry builds an empty registry; Swap installs the first model.
func NewRegistry(cfg Config) *Registry {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.MaxBody < 1 {
		cfg.MaxBody = DefaultMaxBodyBytes
	}
	if cfg.MaxModel < 1 {
		cfg.MaxModel = DefaultMaxModelBytes
	}
	return &Registry{
		entries: make(map[string]*modelEntry),
		cfg:     cfg,
	}
}

// BeginDrain starts the graceful-exit sequence: readiness goes 503 and
// every model's admission queue closes, so new work sheds while queued
// and in-flight jobs drain. Idempotent.
func (reg *Registry) BeginDrain() {
	reg.drainOnce.Do(func() {
		reg.draining.Store(true)
		reg.mu.RLock()
		for _, e := range reg.entries {
			e.batcher.q.CloseAdmission()
		}
		reg.mu.RUnlock()
	})
}

// Draining reports whether the drain sequence has begun.
func (reg *Registry) Draining() bool { return reg.draining.Load() }

// Close shuts every batcher down after its in-flight jobs drain.
func (reg *Registry) Close() {
	// Take the entries out of the map before closing them, so a DELETE
	// handler racing shutdown cannot find an entry whose batcher is
	// already closed and close it a second time.
	reg.mu.Lock()
	entries := reg.entries
	reg.entries = make(map[string]*modelEntry)
	reg.mu.Unlock()
	for _, e := range entries {
		e.batcher.close()
	}
}

// get returns the named entry, or nil when absent.
func (reg *Registry) get(name string) *modelEntry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return reg.entries[name]
}

// maxRegistryModels caps the number of hosted models: each entry pins a
// pipeline and its batcher's flush goroutines, so an unbounded registry
// would let a deploy loop with unique names exhaust memory. Stale entries
// are removed with DELETE /model.
const maxRegistryModels = 32

// Swap installs pipe under name: an existing entry's pipeline pointer is
// replaced atomically (in-flight batches finish on the old pipeline, the
// next flush uses the new one — no request is dropped or torn); a new
// name gets a fresh batcher, unless the registry is at capacity. The
// returned view is snapshotted under the lock; swapped reports whether
// the entry already existed.
func (reg *Registry) Swap(name string, pipe *ghsom.Pipeline) (view ModelView, swapped bool, err error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if e, ok := reg.entries[name]; ok {
		e.batcher.pipe.Store(pipe)
		e.loadedAt = time.Now()
		e.swaps++
		reg.ready.Store(true)
		return e.view(), true, nil
	}
	if len(reg.entries) >= maxRegistryModels {
		return ModelView{}, false, fmt.Errorf("registry full (%d models); DELETE unused entries first", maxRegistryModels)
	}
	e := &modelEntry{
		name:     name,
		batcher:  newBatcher(pipe, reg.cfg),
		loadedAt: time.Now(),
	}
	if reg.draining.Load() {
		// A swap may land during drain (it must complete — in-flight
		// upgrades are part of the no-dropped-requests contract), but a
		// brand-new entry created mid-drain admits nothing.
		e.batcher.q.CloseAdmission()
	}
	reg.entries[name] = e
	reg.ready.Store(true)
	return e.view(), false, nil
}

// remove unloads the named entry, shutting its batcher down after
// in-flight jobs drain. Returns false when the name is unknown.
func (reg *Registry) remove(name string) bool {
	reg.mu.Lock()
	e, ok := reg.entries[name]
	delete(reg.entries, name)
	reg.mu.Unlock()
	if ok {
		// Outside the lock: close drains pending jobs through one last
		// flush, which must not block other registry traffic.
		e.batcher.close()
	}
	return ok
}

// Mux builds the HTTP surface over the registry. Every response carries
// the instance-identity header when Config.Instance is set.
func (reg *Registry) Mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", reg.handleDetect)
	mux.HandleFunc("POST /model", reg.handleLoadModel)
	mux.HandleFunc("DELETE /model", reg.handleUnloadModel)
	mux.HandleFunc("GET /models", reg.handleModels)
	mux.HandleFunc("GET /stats", reg.handleStats)
	// /healthz is readiness: load balancers stop routing here while the
	// initial model loads and the moment a drain begins. /livez is
	// liveness: the process is up — supervisors must not restart a
	// draining server that is still finishing in-flight work. The bodies
	// are single keywords ("ok", "loading", "draining") so upstream
	// health checkers can distinguish a replica that is warming up from
	// one on its way out.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case reg.draining.Load():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !reg.ready.Load():
			http.Error(w, "loading", http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if reg.cfg.Pprof {
		// Opt-in: profiling endpoints leak operational detail, so they are
		// off unless -pprof is passed. These are the stdlib handlers that
		// net/http/pprof would install on the default mux.
		mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	if reg.cfg.Instance == "" {
		return mux
	}
	instance := reg.cfg.Instance
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(InstanceHeader, instance)
		mux.ServeHTTP(w, r)
	})
}

// requestModel resolves the ?model= selector (default "default"),
// writing a 404 when the name is unknown.
func (reg *Registry) requestModel(w http.ResponseWriter, r *http.Request) *modelEntry {
	name := r.URL.Query().Get("model")
	if name == "" {
		name = DefaultModelName
	}
	e := reg.get(name)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
		return nil
	}
	return e
}

func (reg *Registry) handleDetect(w http.ResponseWriter, r *http.Request) {
	if reg.draining.Load() {
		// Shed before touching the body: a draining server serves what it
		// admitted, nothing new. (The closed admission queue would reject
		// anyway; this path just refuses earlier and cheaper.) The
		// Retry-After hint reflects observed backlog: the time the drain
		// will plausibly take to clear what is queued.
		writeDetectError(w, serveq.ErrClosed, reg.drainRetrySeconds())
		return
	}
	if e := reg.requestModel(w, r); e != nil {
		e.batcher.handleDetect(w, r)
	}
}

// drainRetrySeconds derives the 503 Retry-After hint during drain from
// the observed backlog across every model: the estimated time for the
// deepest queue to flush, clamped like retryAfterSeconds, floored at 2s
// because a drain implies a restart or handoff is in progress.
func (reg *Registry) drainRetrySeconds() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	secs := 2
	for _, e := range reg.entries {
		if s := e.batcher.retryAfterSeconds(); s > secs {
			secs = s
		}
	}
	return secs
}

func (reg *Registry) handleStats(w http.ResponseWriter, r *http.Request) {
	if e := reg.requestModel(w, r); e != nil {
		snap := e.batcher.statsSnapshot()
		snap.Instance = reg.cfg.Instance
		snap.Draining = reg.draining.Load()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&snap)
	}
}

// errorStatus maps a request-parsing failure to its HTTP status: bodies
// that blew through a MaxBytesReader cap are 413 (the client should not
// retry the same payload), everything else is a 400.
func errorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// ModelView is the JSON shape of one registry entry on /models and
// POST /model responses.
type ModelView struct {
	Name            string    `json:"name"`
	EnvelopeVersion int       `json:"envelopeVersion"`
	LoadedAt        time.Time `json:"loadedAt"`
	Swaps           int       `json:"swaps"`
	Nodes           int       `json:"nodes"`
	Units           int       `json:"units"`
	MaxDepth        int       `json:"maxDepth"`
	ArenaBytes      int       `json:"arenaBytes"`
	TableBytes      int       `json:"tableBytes"`
	Stats           StatsView `json:"stats"`
}

func (e *modelEntry) view() ModelView {
	pipe := e.batcher.pipe.Load()
	c := pipe.Compiled()
	st := c.Stats()
	return ModelView{
		Name:            e.name,
		EnvelopeVersion: pipe.EnvelopeVersion(),
		LoadedAt:        e.loadedAt,
		Swaps:           e.swaps,
		Nodes:           st.Maps,
		Units:           st.Units,
		MaxDepth:        st.MaxDepth,
		ArenaBytes:      c.ArenaBytes(),
		TableBytes:      c.TableBytes(),
		Stats:           e.batcher.statsSnapshot(),
	}
}

// handleLoadModel reads a pipeline envelope from the request body and
// installs it under ?name= (default "default"), hot-swapping any
// existing entry without interrupting in-flight traffic.
func (reg *Registry) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = DefaultModelName
	}
	// Cheap pre-check before parsing a potentially huge envelope; the
	// authoritative capacity check in Swap still guards the race.
	reg.mu.RLock()
	_, exists := reg.entries[name]
	full := len(reg.entries) >= maxRegistryModels
	reg.mu.RUnlock()
	if !exists && full {
		http.Error(w, fmt.Sprintf("registry full (%d models); DELETE unused entries first", maxRegistryModels), http.StatusConflict)
		return
	}
	if err := faultinject.Hit(faultinject.ModelLoad); err != nil {
		http.Error(w, fmt.Sprintf("load model: %v", err), http.StatusInternalServerError)
		return
	}
	pipe, err := ghsom.LoadPipeline(http.MaxBytesReader(w, r.Body, reg.cfg.MaxModel))
	if err != nil {
		http.Error(w, fmt.Sprintf("load model: %v", err), errorStatus(err))
		return
	}
	pipe.SetParallelism(reg.cfg.Parallelism)
	view, swapped, err := reg.Swap(name, pipe)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !swapped {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(view)
}

// handleUnloadModel removes the ?name= entry from the registry, draining
// its batcher. The default model cannot be unloaded (swap it instead),
// so the server always has a model to serve.
func (reg *Registry) handleUnloadModel(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" || name == DefaultModelName {
		http.Error(w, "cannot unload the default model; POST /model to replace it", http.StatusBadRequest)
		return
	}
	if !reg.remove(name) {
		http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleModels lists the registry, sorted by name for stable output.
func (reg *Registry) handleModels(w http.ResponseWriter, r *http.Request) {
	reg.mu.RLock()
	views := make([]ModelView, 0, len(reg.entries))
	for _, e := range reg.entries {
		views = append(views, e.view())
	}
	reg.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(views)
}

// job is one client request moving through the batcher: its decoded
// records, the absolute deadline it must finish by (zero = none), the
// predictions written back by the flush, and a done signal. Once done
// has closed no flush touches the job again.
type job struct {
	// batch holds the request's decoded records; release returns it to
	// columnarPool.
	batch      *kdd.ColumnarBatch
	deadline   time.Time
	enqueuedAt time.Time
	preds      []ghsom.Prediction
	err        error
	done       chan struct{}
}

// Deadline implements serveq.Job.
func (j *job) Deadline() time.Time { return j.deadline }

// context returns a context bounded by the job's deadline, for per-job
// dataplane retries.
func (j *job) context() (context.Context, context.CancelFunc) {
	if j.deadline.IsZero() {
		return context.Background(), func() {}
	}
	return context.WithDeadline(context.Background(), j.deadline)
}

// serveStats is the monotonically growing counter set behind /stats.
type serveStats struct {
	mu         sync.Mutex
	start      time.Time
	batches    int64
	records    int64
	maxBatch   int
	sumLatency time.Duration
	maxLatency time.Duration
	// quarantined counts jobs that failed in the dataplane (poison
	// records, injected faults, recovered panics) without harming their
	// co-batched neighbors; lastError keeps the most recent failure for
	// /stats-level triage.
	quarantined int64
	lastError   string
	lastErrorAt time.Time
}

func (s *serveStats) record(records int, latency time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.records += int64(records)
	if records > s.maxBatch {
		s.maxBatch = records
	}
	s.sumLatency += latency
	if latency > s.maxLatency {
		s.maxLatency = latency
	}
}

// meanBatchLatency is the lifetime mean flush latency, zero before the
// first batch. Used to derive Retry-After from observed pressure.
func (s *serveStats) meanBatchLatency() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batches == 0 {
		return 0
	}
	return s.sumLatency / time.Duration(s.batches)
}

// noteError records a dataplane failure; quarantine says whether it
// condemned a job (deadline misses, for example, are not quarantines).
func (s *serveStats) noteError(err error, quarantine bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if quarantine {
		s.quarantined++
	}
	s.lastError = err.Error()
	s.lastErrorAt = time.Now()
}

// StatsView is the marshal-safe derived view served on /stats. The
// worker-pool gauges (WorkerBound, BusyWorkers, IdleWorkers, QueueDepth)
// are point-in-time snapshots for diagnosing scaling stalls. The batcher
// runs up to WorkerBound flushes at once, each as soon as a flush loop is
// free, so a non-zero QueueDepth means every loop is busy, never that
// requests wait on a batching timer; busy workers with a deep queue point
// at CPU saturation.
type StatsView struct {
	// Instance is the server's stable identity (Config.Instance), so a
	// cluster rollup can attribute this document to a replica.
	Instance string `json:"instance,omitempty"`
	// Draining reports the upstream-visible drain state: true from the
	// moment the SIGTERM sequence begins until the process exits.
	Draining      bool    `json:"draining"`
	Batches       int64   `json:"batches"`
	Records       int64   `json:"records"`
	MaxBatchSize  int     `json:"maxBatchSize"`
	UptimeSec     float64 `json:"uptimeSec"`
	RecordsPerSec float64 `json:"recordsPerSec"`
	MeanBatchSize float64 `json:"meanBatchSize"`
	MeanBatchMs   float64 `json:"meanBatchLatencyMs"`
	MaxBatchMs    float64 `json:"maxBatchLatencyMs"`
	// WorkerBound is the resolved per-batch worker count (the
	// -parallelism knob, 0 resolved to GOMAXPROCS).
	WorkerBound int `json:"workerBound"`
	// BusyWorkers counts the detection passes executing right now (flush
	// loops mid-flush plus columnar requests), clamped to WorkerBound, so
	// one busy loop reads 1 and every loop busy reads the bound;
	// IdleWorkers is the remainder of the bound.
	BusyWorkers int64 `json:"busyWorkers"`
	IdleWorkers int64 `json:"idleWorkers"`
	// QueueDepth is the number of jobs waiting in the admission queue,
	// not yet picked up by a flush loop; QueueCap is its bound.
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	// QueueWaitMaxMs and QueueWaitMeanMs aggregate how long dequeued
	// jobs waited for admission→dequeue since the last /stats scrape —
	// the backlog signal a cluster balancer uses to prefer the
	// less-loaded replica over a round-robin guess.
	QueueWaitMaxMs  float64 `json:"queueWaitMaxMs"`
	QueueWaitMeanMs float64 `json:"queueWaitMeanMs"`
	// RetryAfterSec is the server's current overload hint: the seconds a
	// shed client should wait, derived from observed queue pressure.
	RetryAfterSec int `json:"retryAfterSec"`
	// Overload and hardening counters: admission outcomes from the
	// bounded deadline-aware queue, plus dataplane quarantines.
	Admitted        int64  `json:"admitted"`
	ShedQueueFull   int64  `json:"shedQueueFull"`
	ShedDeadline    int64  `json:"shedDeadline"`
	ShedClosed      int64  `json:"shedClosed"`
	DroppedDeadline int64  `json:"droppedDeadline"`
	Quarantined     int64  `json:"quarantined"`
	LastError       string `json:"lastError,omitempty"`
	LastErrorAt     string `json:"lastErrorAt,omitempty"`
}

// snapshot derives the rate/mean fields under the lock.
func (s *serveStats) snapshot() StatsView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StatsView{
		Batches:      s.batches,
		Records:      s.records,
		MaxBatchSize: s.maxBatch,
		MaxBatchMs:   s.maxLatency.Seconds() * 1e3,
	}
	up := time.Since(s.start)
	out.UptimeSec = up.Seconds()
	if up > 0 {
		out.RecordsPerSec = float64(s.records) / up.Seconds()
	}
	if s.batches > 0 {
		out.MeanBatchSize = float64(s.records) / float64(s.batches)
		out.MeanBatchMs = (s.sumLatency / time.Duration(s.batches)).Seconds() * 1e3
	}
	out.Quarantined = s.quarantined
	out.LastError = s.lastError
	if !s.lastErrorAt.IsZero() {
		out.LastErrorAt = s.lastErrorAt.UTC().Format(time.RFC3339Nano)
	}
	return out
}

// batcher coalesces jobs into micro-batches, each flushed through one
// DetectMergedCtx pass by up to loops concurrent flush loops (the
// resolved Parallelism), each flushing as soon as it is free, up to
// maxBatch records: jobs that
// arrive while every loop is busy share the next free loop's flush, so
// batches grow with load and an idle server adds no linger. Rows are
// independent, so concurrent flushes return the same verdicts as one
// loop would. The pipeline pointer is atomic: a model hot-swap stores a
// new pipeline, each flush loads the pointer exactly once, so every
// batch runs whole against one model — requests are never split or torn
// across a swap. Admission is the bounded
// deadline-aware serveq.Queue: a full queue sheds new work instead of
// building unbounded backlog, and jobs whose deadline lapses while
// queued are dropped before costing dataplane time.
type batcher struct {
	pipe     atomic.Pointer[ghsom.Pipeline]
	maxBatch int
	maxBody  int64
	// loops is the resolved Parallelism: the number of flush loops and
	// the worker bound /stats reports.
	loops          int
	defaultTimeout time.Duration
	inflight       atomic.Int64
	q              *serveq.Queue[*job]
	quit           chan struct{}
	wg             sync.WaitGroup
	stats          serveStats
}

func newBatcher(pipe *ghsom.Pipeline, cfg Config) *batcher {
	b := &batcher{
		maxBatch:       cfg.MaxBatch,
		maxBody:        cfg.MaxBody,
		loops:          parallel.Resolve(cfg.Parallelism),
		defaultTimeout: cfg.DefaultTimeout,
		q:              serveq.New[*job](cfg.QueueCap),
		quit:           make(chan struct{}),
	}
	if b.maxBody < 1 {
		b.maxBody = DefaultMaxBodyBytes
	}
	b.pipe.Store(pipe)
	b.stats.start = time.Now()
	b.wg.Add(b.loops)
	for range b.loops {
		go b.loop()
	}
	return b
}

func (b *batcher) close() {
	b.q.CloseAdmission()
	close(b.quit)
	b.wg.Wait()
	// Fail any job that raced past the loops' final drains, so no client
	// hangs on a batcher that will never flush again.
	for {
		select {
		case j := <-b.q.C():
			j.err = errUnloaded
			close(j.done)
		default:
			return
		}
	}
}

// errUnloaded is returned to requests that race a model unload.
var errUnloaded = fmt.Errorf("model unloaded")

// errDeadline is returned to jobs whose deadline lapsed before their
// batch could serve them.
var errDeadline = fmt.Errorf("deadline exceeded before detection completed")

// loop is the work-conserving micro-batching core, one of b.loops copies
// sharing the admission queue: it blocks for the first job, drains
// without blocking whatever is already queued until the batch holds
// maxBatch records, and flushes at once. Jobs that arrive while every
// loop is flushing queue behind them and form the next batch of
// whichever loop frees first, so batches grow with load while no job
// ever waits on an idle loop.
func (b *batcher) loop() {
	defer b.wg.Done()
	var (
		pending []*job
		size    int
	)
	take := func(j *job) {
		b.q.ObserveWait(time.Since(j.enqueuedAt))
		if !b.q.Alive(j, time.Now()) {
			// Expired while queued: fail it now, spend nothing on it.
			j.err = errDeadline
			close(j.done)
			return
		}
		pending = append(pending, j)
		size += j.batch.Rows()
	}
	// drain takes already-queued jobs, never blocking, until the batch
	// holds at least limit records.
	drain := func(limit int) {
		for size < limit {
			select {
			case j := <-b.q.C():
				take(j)
			default:
				return
			}
		}
	}
	var scratch flushScratch
	flush := func() {
		if len(pending) > 0 {
			b.flush(pending, size, &scratch)
		}
		pending, size = nil, 0
	}
	for {
		select {
		case j := <-b.q.C():
			take(j)
			drain(b.maxBatch)
			flush()
		case <-b.quit:
			// Drain whatever arrived before shutdown so no job hangs.
			drain(math.MaxInt)
			flush()
			return
		}
	}
}

// detectSafe runs one dataplane pass over batches (see
// ghsom.Pipeline.DetectMergedCtx) with the panic barrier and the
// chaos-drill fault points. A panicking pass (poison model state, an
// injected classify-panic) is converted to an error so the flush loop —
// and the process — survive it and quarantine only the offending jobs.
func detectSafe(ctx context.Context, pipe *ghsom.Pipeline, batches []*kdd.ColumnarBatch, out []ghsom.Prediction, errs []error) (preds []ghsom.Prediction, err error) {
	defer func() {
		if r := recover(); r != nil {
			preds, err = nil, fmt.Errorf("dataplane panic (job quarantined): %v", r)
		}
	}()
	faultinject.Hit(faultinject.DataplaneLatency)
	if err := faultinject.Hit(faultinject.ScratchExhausted); err != nil {
		return nil, err
	}
	faultinject.Hit(faultinject.ClassifyPanic)
	return pipe.DetectMergedCtx(ctx, batches, out, errs)
}

// detectOne is detectSafe over a single batch: its verdicts, or the
// pass's error or the batch's own.
func detectOne(ctx context.Context, pipe *ghsom.Pipeline, cb *kdd.ColumnarBatch, out []ghsom.Prediction) ([]ghsom.Prediction, error) {
	batches := [1]*kdd.ColumnarBatch{cb}
	var errs [1]error
	preds, err := detectSafe(ctx, pipe, batches[:], out, errs[:])
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// batchContext bounds a merged flush by the latest deadline among its
// jobs — but only when every job has one; a single no-deadline job means
// the batch must be allowed to run to completion.
func batchContext(pending []*job) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, j := range pending {
		if j.deadline.IsZero() {
			return context.Background(), func() {}
		}
		if j.deadline.After(latest) {
			latest = j.deadline
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// flushScratch is a flush loop's reusable per-flush slices.
type flushScratch struct {
	batches []*kdd.ColumnarBatch
	errs    []error
}

// flush runs the pending jobs' batches through one dataplane pass, as
// consecutive rows of one merged batch, and scatters the predictions
// back per job. A job whose rows fail to encode fails alone, with
// job-local record indices, and its co-batched neighbors are served by
// the same pass. A pass that fails as a whole (a panic, an injected
// fault, the batch deadline) must not fail co-batched clients' valid
// requests either, so then every job is retried individually under its
// own deadline. Jobs whose deadline lapsed while pending are failed
// without dataplane work, and each failure path is quarantined rather
// than allowed to escape.
func (b *batcher) flush(pending []*job, size int, scratch *flushScratch) {
	// Re-check deadlines at flush time: a job admitted alive may have
	// expired while the batch accumulated.
	now := time.Now()
	live := pending[:0]
	for _, j := range pending {
		if !b.q.Alive(j, now) {
			size -= j.batch.Rows()
			j.err = errDeadline
			close(j.done)
			continue
		}
		live = append(live, j)
	}
	pending = live
	if len(pending) == 0 {
		return
	}
	// One pointer load per flush: the whole merged pass (and its per-job
	// retries) runs against a single pipeline even if a hot-swap lands
	// mid-flush.
	pipe := b.pipe.Load()
	batches, errs := scratch.batches[:0], scratch.errs[:0]
	for _, j := range pending {
		batches = append(batches, j.batch)
		errs = append(errs, nil)
	}
	scratch.batches, scratch.errs = batches, errs
	// The scratch must not pin the batches once their jobs release them.
	defer clear(batches)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	ctx, cancel := batchContext(pending)
	start := time.Now()
	preds, err := detectSafe(ctx, pipe, batches, nil, errs)
	cancel()
	if err != nil {
		// Only the per-job retries actually serve records, so only they
		// count toward /stats; the failed merged attempt is discarded.
		// Each job retries under its own deadline, so one slow or poisoned
		// neighbor cannot condemn the rest.
		for _, j := range pending {
			if !b.q.Alive(j, time.Now()) {
				j.err = errDeadline
				close(j.done)
				continue
			}
			jctx, jcancel := j.context()
			start := time.Now()
			j.preds, j.err = detectOne(jctx, pipe, j.batch, nil)
			jcancel()
			if j.err == nil {
				b.stats.record(j.batch.Rows(), time.Since(start))
			} else if errors.Is(j.err, context.DeadlineExceeded) {
				b.stats.noteError(j.err, false)
				j.err = errDeadline
			} else {
				b.stats.noteError(j.err, true)
			}
			close(j.done)
		}
		return
	}
	served, off := 0, 0
	for i, j := range pending {
		rows := j.batch.Rows()
		if errs[i] != nil {
			j.err = errs[i]
			b.stats.noteError(j.err, true)
		} else {
			j.preds = preds[off : off+rows]
			served += rows
		}
		off += rows
	}
	if served > 0 {
		b.stats.record(served, time.Since(start))
	}
	for _, j := range pending {
		close(j.done)
	}
}

// run pushes j through bounded admission and blocks until its batch is
// flushed, the deadline or ctx expires, or the batcher closes. Admission
// failures (queue full, past deadline, admission closed) come back
// immediately as serveq errors — the caller maps them to 429/503. On the
// ctx and quit exits the job may still be queued or flushing, so j.done
// can still be open when run returns.
func (b *batcher) run(ctx context.Context, j *job) ([]ghsom.Prediction, error) {
	j.enqueuedAt = time.Now()
	j.done = make(chan struct{})
	if err := b.q.Push(j); err != nil {
		close(j.done) // never queued: no flush will see it
		return nil, err
	}
	select {
	case <-j.done:
		return j.preds, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.quit:
		// The batcher is shutting down. The job may still have been
		// served by the final drain — report that result if it is
		// already in; otherwise tell the client the model went away.
		select {
		case <-j.done:
			return j.preds, j.err
		default:
			return nil, errUnloaded
		}
	}
}

// parserPool recycles NDJSON record parsers (and their internal buffers
// and string-interning tables) across requests, so the legacy ingestion
// path costs near-zero steady-state allocation too.
var parserPool = sync.Pool{New: func() any { return kdd.NewRecordParser(nil) }}

// verdictPool recycles the buffers responses are encoded into; it holds
// pointers so that Put does not allocate.
var verdictPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledVerdictBytes bounds the response buffers verdictPool keeps, so
// one bulk request does not pin its whole response for later ones.
const maxPooledVerdictBytes = 64 << 10

// putVerdictBuf returns a response buffer to verdictPool unless it
// outgrew maxPooledVerdictBytes.
func putVerdictBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledVerdictBytes {
		*buf = (*buf)[:0]
		verdictPool.Put(buf)
	}
}

// decode parses an NDJSON body into j.batch, a pooled batch that
// batcher.release returns, with the pooled allocation-lean parser. A
// malformed record is named by its 1-based index; accept/reject behavior
// matches the json.Decoder loop the parser replaced.
func (j *job) decode(body io.Reader) error {
	j.batch = columnarPool.Get().(*kdd.ColumnarBatch)
	j.batch.Reset()
	if err := faultinject.Hit(faultinject.DecodeError); err != nil {
		return err
	}
	p := parserPool.Get().(*kdd.RecordParser)
	p.Reset(body)
	err := p.AppendColumnar(j.batch, maxRequestRecords)
	p.Reset(nil) // drop the body reference before pooling
	parserPool.Put(p)
	return err
}

// release returns j's pooled batch, but only once no flush can read it
// again: after j.done has closed, or when j never ran. A job its client
// abandoned may still be queued or mid-flush, so its batch is left to
// the garbage collector. Batches of more than one flush's MaxBatch
// records are not pooled either.
func (b *batcher) release(j *job) {
	if j.batch == nil {
		return
	}
	if j.done != nil {
		select {
		case <-j.done:
		default:
			return
		}
	}
	if j.batch.Rows() <= b.maxBatch {
		columnarPool.Put(j.batch)
	}
	j.batch = nil
}

// verdictChunkBytes is how many encoded verdict bytes a response holds
// before writing them. A bulk response goes out in chunks of about this
// size, so it never holds more than one chunk and its buffer stays small
// enough for verdictPool.
const verdictChunkBytes = maxPooledVerdictBytes / 2

// writeVerdictChunks encodes preds as NDJSON after dst and writes the
// bytes to w each time they reach verdictChunkBytes. It returns the
// unwritten tail and whether any chunk went out; a write error (the
// client went away) has no one to tell. It is the one tail of both
// /detect formats: a verdict that cannot be encoded (a NaN or infinite
// score) fails the response with a 500 and ok false when no output has
// gone out, and once output has begun — begun, or a chunk of this call
// written — it aborts the connection, so the client sees a broken
// response, never a short 200.
func (b *batcher) writeVerdictChunks(w http.ResponseWriter, dst []byte, preds []ghsom.Prediction, begun bool) (tail []byte, wrote, ok bool) {
	for i := range preds {
		var err error
		if dst, err = anomaly.AppendPredictionJSON(dst, &preds[i]); err != nil {
			err = fmt.Errorf("verdict %d: %w", i+1, err)
			b.stats.noteError(err, false)
			if begun || wrote {
				panic(http.ErrAbortHandler)
			}
			http.Error(w, "encode verdicts: "+err.Error(), http.StatusInternalServerError)
			return dst, false, false
		}
		if len(dst) >= verdictChunkBytes {
			w.Write(dst)
			wrote = true
			dst = dst[:0]
		}
	}
	return dst, wrote, true
}

// columnarPool recycles decoded batches across requests of both wire
// formats.
var columnarPool = sync.Pool{New: func() any { return new(kdd.ColumnarBatch) }}

// maxRequestRecords bounds one HTTP request body by record count (the
// raw size is bounded by -max-body); bulk scoring belongs on the stdin
// path or multiple requests.
const maxRequestRecords = 100_000

// RequestDeadline resolves the absolute deadline of one request:
// X-GHSOM-Deadline-Ms wins, then any deadline on the request context
// (e.g. a proxy timeout), then the def fallback. A zero time means the
// request runs unbounded. Exported because the gateway resolves the same
// contract at its own edge before re-budgeting per hop.
func RequestDeadline(r *http.Request, def time.Duration) (time.Time, error) {
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return time.Time{}, fmt.Errorf("%s: want a positive integer of milliseconds, got %q", DeadlineHeader, h)
		}
		return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
	}
	if dl, ok := r.Context().Deadline(); ok {
		return dl, nil
	}
	if def > 0 {
		return time.Now().Add(def), nil
	}
	return time.Time{}, nil
}

// retryAfterClamp bounds the derived Retry-After hint: at least 1s (the
// header is integral seconds and zero means "hammer me again"), at most
// 30s so a transient spike cannot park clients for minutes.
const (
	minRetryAfterSec = 1
	maxRetryAfterSec = 30
)

// retryAfterSeconds derives the overload Retry-After hint from observed
// queue pressure instead of a fixed constant: the estimated time to
// drain the current backlog — queued jobs served at the measured mean
// flush cadence, spread over the concurrent flush loops — clamped to
// [1, 30] seconds. An idle or just-started server (no latency data yet)
// answers the 1s floor, matching the old fixed behavior.
func (b *batcher) retryAfterSeconds() int {
	depth := b.q.Depth()
	mean := b.stats.meanBatchLatency()
	if depth == 0 || mean <= 0 {
		return minRetryAfterSec
	}
	// Each flush serves at least one queued job and b.loops flushes run
	// at once, so depth × mean latency / loops bounds the drain time from
	// above; the ceil keeps sub-second pressure visible as the 1s floor.
	est := time.Duration(depth) * mean / time.Duration(b.loops)
	secs := int(math.Ceil(est.Seconds()))
	if secs < minRetryAfterSec {
		return minRetryAfterSec
	}
	if secs > maxRetryAfterSec {
		return maxRetryAfterSec
	}
	return secs
}

// writeDetectError maps a detection-path failure to its HTTP response.
// Load shedding is deliberate and retryable — 429 with Retry-After for
// overload (full queue, lapsed deadline), 503 for a draining or unloaded
// server — while dataplane failures (poison records, injected faults,
// quarantined panics) are the client's 422. A vanished client gets
// nothing. retryAfterSec is the pressure-derived wait hint.
func writeDetectError(w http.ResponseWriter, err error, retryAfterSec int) {
	if retryAfterSec < minRetryAfterSec {
		retryAfterSec = minRetryAfterSec
	}
	switch {
	case errors.Is(err, serveq.ErrFull), errors.Is(err, serveq.ErrPastDeadline), errors.Is(err, errDeadline):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, serveq.ErrClosed), errors.Is(err, errUnloaded):
		w.Header().Set("Retry-After", strconv.Itoa(max(retryAfterSec, 2)))
		http.Error(w, "server draining or model unloaded: "+err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled):
		// The client went away; there is no one to write to.
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
	}
}

// handleDetect serves /detect. A columnar body goes to
// handleDetectColumnar. An NDJSON body is decoded straight into a pooled
// kdd.ColumnarBatch (RecordParser.AppendColumnar: no Record structs) and
// submitted as one job to the admission queue; a flush loop merges it
// with whatever else is queued into one DetectMergedCtx pass. A body that
// fails to parse is a 400 naming the 1-based record; a record the
// encoder rejects fails only its own job, with a 422 naming the record's
// 0-based index in the body, the lowest bad one.
func (b *batcher) handleDetect(w http.ResponseWriter, r *http.Request) {
	if ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && ct == kdd.ColumnarContentType {
		b.handleDetectColumnar(w, r)
		return
	}
	deadline, err := RequestDeadline(r, b.defaultTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := &job{deadline: deadline}
	defer b.release(j)
	if err := j.decode(http.MaxBytesReader(w, r.Body, b.maxBody)); err != nil {
		http.Error(w, err.Error(), errorStatus(err))
		return
	}
	if j.batch.Rows() == 0 {
		http.Error(w, "empty request: expected NDJSON records", http.StatusBadRequest)
		return
	}
	preds, err := b.run(r.Context(), j)
	if err != nil {
		writeDetectError(w, err, b.retryAfterSeconds())
		return
	}
	b.writeVerdicts(w, preds)
}

// writeVerdicts answers one NDJSON response from a pooled buffer: in a
// single Write with a Content-Length when it fits in one chunk, else in
// chunks (see writeVerdictChunks for a verdict that cannot be encoded).
func (b *batcher) writeVerdicts(w http.ResponseWriter, preds []ghsom.Prediction) {
	buf := verdictPool.Get().(*[]byte)
	defer putVerdictBuf(buf)
	w.Header().Set("Content-Type", "application/x-ndjson")
	out, wrote, ok := b.writeVerdictChunks(w, (*buf)[:0], preds, false)
	*buf = out
	if !ok {
		return
	}
	if !wrote {
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	}
	w.Write(out) // a client gone mid-response has no one to tell
}

// handleDetectColumnar is the wire-format fast path: each GHSOMWB1 frame
// in the body is already a formed batch — the same kdd.ColumnarBatch
// type NDJSON jobs carry — so it skips the micro-batcher and runs whole,
// on the handler goroutine, through the same dataplane pass as a flush
// (detectOne: the encode kernel writes the column runs straight into the
// pipeline's pooled flat matrix, no intermediate Record structs) against
// one atomically-loaded pipeline per frame. Predictions stream out as
// NDJSON in record order, frame by frame. Errors on the first frame map
// to a status code (400/413/422, a bad record named by its 0-based index
// in the frame, the lowest bad one); once output has begun a malformed
// trailing frame just ends the response, and a verdict that cannot be
// encoded aborts it (writeVerdictChunks).
func (b *batcher) handleDetectColumnar(w http.ResponseWriter, r *http.Request) {
	// The HTTP/1 server closes the request body on the first response
	// write; a multi-frame body interleaves reads with prediction writes,
	// so opt in to full duplex (no-op where unsupported, e.g. HTTP/2,
	// which is duplex already).
	_ = http.NewResponseController(w).EnableFullDuplex()
	// Full duplex makes the body the handler's to finish: close it on
	// every exit so an early error return (bad frame, shed, poison) never
	// leaves the connection's reader mid-body — the server's keep-alive
	// loop would panic on the next request's read and reset the client.
	defer r.Body.Close()
	deadline, err := RequestDeadline(r, b.defaultTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	frameCtx := context.Context(nil)
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		frameCtx, cancel = context.WithDeadline(r.Context(), deadline)
		defer cancel()
	}
	body := http.MaxBytesReader(w, r.Body, b.maxBody)
	cb := columnarPool.Get().(*kdd.ColumnarBatch)
	defer columnarPool.Put(cb)
	buf := verdictPool.Get().(*[]byte)
	defer putVerdictBuf(buf)
	var preds []ghsom.Prediction
	frames, total := 0, 0
	fail := func(msg string, code int) {
		if frames == 0 {
			http.Error(w, msg, code)
		}
	}
	for {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// Out of budget: shed remaining frames. Before any output this
			// is a clean 429; mid-stream the truncated NDJSON ends here.
			if frames == 0 {
				writeDetectError(w, errDeadline, b.retryAfterSeconds())
			}
			return
		}
		err := kdd.ReadColumnarBatch(body, cb, kdd.DefaultColumnarLimits)
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(fmt.Sprintf("frame %d: %v", frames+1, err), errorStatus(err))
			return
		}
		if total += cb.Rows(); total > maxRequestRecords {
			fail(fmt.Sprintf("request exceeds %d records", maxRequestRecords), http.StatusBadRequest)
			return
		}
		pipe := b.pipe.Load()
		b.inflight.Add(1)
		start := time.Now()
		preds, err = detectOne(frameCtx, pipe, cb, preds)
		b.inflight.Add(-1)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				b.stats.noteError(err, false)
				if frames == 0 {
					writeDetectError(w, errDeadline, b.retryAfterSeconds())
				}
				return
			}
			b.stats.noteError(err, true)
			if frames == 0 {
				writeDetectError(w, err, b.retryAfterSeconds())
			}
			return
		}
		b.stats.record(cb.Rows(), time.Since(start))
		if frames == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		out, _, ok := b.writeVerdictChunks(w, (*buf)[:0], preds, frames > 0)
		*buf = out
		if !ok {
			return
		}
		frames++
		if _, err := w.Write(out); err != nil {
			return // client went away mid-response
		}
	}
	if frames == 0 {
		http.Error(w, "empty request: expected columnar frames", http.StatusBadRequest)
	}
}

// statsSnapshot derives the counter view and overlays the point-in-time
// worker-pool gauges.
func (b *batcher) statsSnapshot() StatsView {
	out := b.stats.snapshot()
	bound := int64(b.loops)
	busy := min(b.inflight.Load(), bound)
	out.WorkerBound = int(bound)
	out.BusyWorkers = busy
	out.IdleWorkers = bound - busy
	out.QueueDepth = b.q.Depth()
	out.QueueCap = b.q.Cap()
	waits := b.q.TakeWaitStats()
	out.QueueWaitMaxMs = waits.Max.Seconds() * 1e3
	out.QueueWaitMeanMs = waits.Mean.Seconds() * 1e3
	out.RetryAfterSec = b.retryAfterSeconds()
	qs := b.q.Stats()
	out.Admitted = qs.Admitted
	out.ShedQueueFull = qs.RejectedFull
	out.ShedDeadline = qs.RejectedDeadline
	out.ShedClosed = qs.RejectedClosed
	out.DroppedDeadline = qs.DroppedDeadline
	return out
}
