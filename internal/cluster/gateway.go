package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ghsom/internal/serve"
)

// Config bundles the gateway's knobs. Zero values resolve to the
// defaults documented per field.
type Config struct {
	// Replicas are the base URLs of the ghsom-serve fleet members.
	Replicas []string
	// Instance is the gateway's own identity, echoed on every response.
	Instance string
	// Replication is how many distinct replicas serve each model's shard
	// (default 2, capped at the fleet size).
	Replication int
	// MaxRetries bounds additional attempts after the first (default 3).
	// Retries never extend past the request's deadline.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts (defaults 25ms and 2s); a replica's Retry-After hint is
	// honored as a floor on top.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Hedge, when positive, launches a second request to another shard
	// member if the first has not answered within this delay. Detects are
	// idempotent, so the duplicate is safe; the first complete response
	// wins and the loser is discarded.
	Hedge time.Duration
	// HealthEvery is the active checker's probe period (default 1s);
	// ProbeTimeout bounds one probe (default 2s).
	HealthEvery  time.Duration
	ProbeTimeout time.Duration
	// BreakerThreshold consecutive failures open a replica's breaker;
	// after BreakerCooldown it half-opens for probe requests (defaults 3
	// and 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DefaultTimeout is the deadline given to requests carrying none
	// (default 30s); MaxBody and MaxModel cap one /detect body and one
	// model envelope.
	DefaultTimeout time.Duration
	MaxBody        int64
	MaxModel       int64
	// Transport underlies all gateway→replica requests (default
	// http.DefaultTransport); tests inject one. Fault-injection points
	// wrap whatever is configured.
	Transport http.RoundTripper
}

func (cfg *Config) fillDefaults() {
	if cfg.Replication < 1 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Replicas) {
		cfg.Replication = len(cfg.Replicas)
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = serve.DefaultJobTimeout
	}
	if cfg.MaxBody < 1 {
		cfg.MaxBody = serve.DefaultMaxBodyBytes
	}
	if cfg.MaxModel < 1 {
		cfg.MaxModel = serve.DefaultMaxModelBytes
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
}

// Gateway is the coordinator: an http.Handler exposing the same surface
// as one ghsom-serve replica, backed by the whole fleet.
type Gateway struct {
	cfg         Config
	replicas    []*replica
	ring        *ring
	client      *http.Client // proxy traffic; bounded per request by deadline contexts
	probeClient *http.Client // health probes, bounded by ProbeTimeout
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	// rr rotates round-robin among equally-backlogged shard members.
	rr atomic.Uint64

	requests      atomic.Int64
	retries       atomic.Int64
	hedges        atomic.Int64
	hedgeWins     atomic.Int64
	shedNoReplica atomic.Int64
	deadlineStops atomic.Int64
}

// New builds the gateway over the configured fleet and starts the
// active health checker. Close stops it.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	cfg.fillDefaults()
	seen := make(map[string]bool, len(cfg.Replicas))
	g := &Gateway{cfg: cfg, stop: make(chan struct{})}
	for _, u := range cfg.Replicas {
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		g.replicas = append(g.replicas, &replica{
			url:     u,
			breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		})
	}
	if len(g.replicas) == 0 {
		return nil, errors.New("cluster: no distinct replicas configured")
	}
	if g.cfg.Replication > len(g.replicas) {
		g.cfg.Replication = len(g.replicas)
	}
	g.ring = newRing(g.replicas)
	transport := faultTransport{base: cfg.Transport}
	g.client = &http.Client{Transport: transport}
	g.probeClient = &http.Client{Transport: transport, Timeout: cfg.ProbeTimeout}
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Close stops the health checker. In-flight proxied requests finish on
// their own deadlines.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// CheckNow runs one synchronous health sweep, for tests and startup
// scripts that need the fleet classified before traffic.
func (g *Gateway) CheckNow() { g.checkAll() }

// Handler builds the gateway's HTTP surface.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /detect", g.handleDetect)
	mux.HandleFunc("POST /model", g.handleLoadModel)
	mux.HandleFunc("DELETE /model", g.handleUnloadModel)
	mux.HandleFunc("GET /models", g.handleModels)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		for _, rep := range g.replicas {
			if rep.routable() {
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, "ok")
				return
			}
		}
		http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if g.cfg.Instance == "" {
		return mux
	}
	instance := g.cfg.Instance
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(serve.InstanceHeader, instance)
		mux.ServeHTTP(w, r)
	})
}

// proxyResult is one settled gateway→replica exchange: either a whole
// received response (status, headers of interest, full body) or a
// transport-level error. Responses are received whole before being
// committed to the client, so a replica dying mid-body costs a retry,
// never a torn client stream.
type proxyResult struct {
	status      int
	contentType string
	retryAfter  int // parsed Retry-After seconds, 0 if absent
	upstream    string
	body        []byte
	err         error
}

// retryable reports whether the exchange may be retried elsewhere:
// transport failures and deliberate shedding (429 overload, 503
// drain/unavailable) are; everything else — including 4xx client errors
// and verdict-bearing 200s — is final.
func (p proxyResult) retryable() bool {
	return p.err != nil || p.status == http.StatusTooManyRequests || p.status == http.StatusServiceUnavailable
}

func (g *Gateway) handleDetect(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	if model == "" {
		model = serve.DefaultModelName
	}
	deadline, err := serve.RequestDeadline(r, g.cfg.DefaultTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Buffer the body: retries and hedges need to replay it, and the
	// columnar format passes through as opaque bytes either way.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	g.requests.Add(1)
	res := g.route(r.Context(), model, r.Header.Get("Content-Type"), body, deadline)
	if res.err != nil {
		// Every attempt failed at the transport level and the retry budget
		// or deadline is spent: the shard is effectively down right now.
		w.Header().Set("Retry-After", "2")
		http.Error(w, fmt.Sprintf("no replica completed the request: %v", res.err), http.StatusServiceUnavailable)
		return
	}
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
	}
	if res.upstream != "" {
		w.Header().Set("X-GHSOM-Upstream", res.upstream)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// route drives the bounded retry loop for one detect: pick the best
// eligible shard member, exchange, and on a retryable outcome back off
// (exponential with jitter, floored by the replica's Retry-After hint)
// and try again — but never past the request's deadline and never more
// than MaxRetries extra attempts. A shard with no routable member sheds
// with a synthetic 503 + Retry-After while other shards keep serving.
func (g *Gateway) route(ctx context.Context, model, contentType string, body []byte, deadline time.Time) proxyResult {
	backoff := g.cfg.RetryBase
	var last proxyResult
	var lastRep *replica
	haveLast := false
	for attempt := 0; attempt <= g.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			g.retries.Add(1)
		}
		rep, probe := g.pick(model, lastRep)
		if rep == nil {
			break // no routable member: degrade this shard only
		}
		res := g.exchange(ctx, rep, probe, model, contentType, body, deadline)
		if !res.retryable() {
			return res
		}
		last, haveLast, lastRep = res, true, rep
		// Back off before the next attempt, honoring the replica's
		// Retry-After as a floor, and never sleeping past the deadline.
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		if ra := time.Duration(res.retryAfter) * time.Second; ra > wait {
			wait = ra
		}
		if backoff *= 2; backoff > g.cfg.RetryMax {
			backoff = g.cfg.RetryMax
		}
		if !deadline.IsZero() && time.Now().Add(wait).After(deadline) {
			g.deadlineStops.Add(1)
			return last // out of budget: report the last shed, do not retry past the deadline
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return proxyResult{err: ctx.Err()}
		}
	}
	if haveLast {
		return last
	}
	g.shedNoReplica.Add(1)
	return proxyResult{
		status:      http.StatusServiceUnavailable,
		contentType: "text/plain; charset=utf-8",
		retryAfter:  2,
		body:        []byte(fmt.Sprintf("no healthy replica for model %q right now\n", model)),
	}
}

// pick selects the shard member to try next: routable (health),
// admitted by its breaker, preferring replicas other than the one that
// just failed. Members whose scraped backlog (queue-wait mean plus
// depth) is within a small band of the least-backlogged spread traffic
// round-robin — a shard with healthy siblings shares load instead of
// funnelling everything into one replica between stats scrapes — and
// more-backlogged members serve only as fallbacks, least-loaded first.
// Breaker admission is only claimed on the replica actually returned,
// so half-open probes are never leaked.
func (g *Gateway) pick(model string, avoid *replica) (*replica, bool) {
	shard := g.ring.shard(model, g.cfg.Replication)
	cands := make([]*replica, 0, len(shard))
	for _, rep := range shard {
		if rep.routable() && rep != avoid {
			cands = append(cands, rep)
		}
	}
	if len(cands) == 0 {
		// A single-member shard retries where it failed, or sheds.
		if avoid != nil && avoid.routable() {
			cands = append(cands, avoid)
		} else {
			return nil, false
		}
	}
	backlog := func(r *replica) float64 {
		return r.queueWaitMs.load() + float64(r.queueDepth.Load())*10
	}
	minB := math.Inf(1)
	for _, c := range cands {
		if b := backlog(c); b < minB {
			minB = b
		}
	}
	const bandMs = 5
	band := cands[:0:len(cands)]
	var rest []*replica
	for _, c := range cands {
		if backlog(c) <= minB+bandMs {
			band = append(band, c)
		} else {
			rest = append(rest, c)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return backlog(rest[i]) < backlog(rest[j]) })
	now := time.Now()
	start := int(g.rr.Add(1) % uint64(len(band)))
	for i := 0; i < len(band); i++ {
		c := band[(start+i)%len(band)]
		if ok, probe := c.breaker.allow(now); ok {
			return c, probe
		}
	}
	for _, c := range rest {
		if ok, probe := c.breaker.allow(now); ok {
			return c, probe
		}
	}
	return nil, false
}

// exchange performs one gateway→replica detect exchange, hedged with a
// second shard member when configured. The breaker and per-replica
// counters are settled inside send, so hedge losers settle themselves.
func (g *Gateway) exchange(ctx context.Context, rep *replica, probe bool, model, contentType string, body []byte, deadline time.Time) proxyResult {
	if g.cfg.Hedge <= 0 {
		return g.send(ctx, rep, probe, model, contentType, body, deadline)
	}
	ch := make(chan proxyResult, 2)
	go func() { ch <- g.send(ctx, rep, probe, model, contentType, body, deadline) }()
	var hedged bool
	select {
	case res := <-ch:
		return res
	case <-time.After(g.cfg.Hedge):
	}
	// Primary is slow: race a second member. The loser finishes on its
	// own (its breaker/counters settle in send) and is discarded — detect
	// is idempotent, so the duplicate work is the cost of the tail cut.
	rep2, probe2 := g.pick(model, rep)
	if rep2 != nil && rep2 != rep {
		g.hedges.Add(1)
		hedged = true
		go func() { ch <- g.send(ctx, rep2, probe2, model, contentType, body, deadline) }()
	}
	res := <-ch
	if res.retryable() && hedged {
		// First finisher failed; the race still has a runner — give it its
		// chance before reporting failure upward.
		if res2 := <-ch; !res2.retryable() {
			res = res2
		}
	}
	if hedged && res.upstream != "" && rep2 != nil && res.upstream == rep2.url {
		g.hedgeWins.Add(1)
	}
	return res
}

// send performs exactly one exchange with one replica: the deadline
// budget is re-encoded per hop as the remaining milliseconds, the
// response body is read whole, and the breaker is settled — success on
// any complete response that is not a server-side failure, failure on
// transport errors, torn bodies, and non-shedding 5xx.
func (g *Gateway) send(ctx context.Context, rep *replica, probe bool, model, contentType string, body []byte, deadline time.Time) proxyResult {
	_ = probe // the breaker tracks its own probe state; settled below
	rep.sent.Add(1)
	cancel := context.CancelFunc(func() {})
	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			// Out of budget before sending: settle the breaker as a success
			// (the replica did nothing wrong) and report a synthetic shed.
			rep.breaker.success()
			return proxyResult{status: http.StatusTooManyRequests, retryAfter: 1,
				contentType: "text/plain; charset=utf-8",
				body:        []byte("deadline exhausted before dispatch\n")}
		}
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/detect?model="+url.QueryEscape(model), bytes.NewReader(body))
	if err != nil {
		rep.breaker.success()
		return proxyResult{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if !deadline.IsZero() {
		ms := time.Until(deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := g.client.Do(req)
	now := time.Now()
	if err != nil {
		rep.failed.Add(1)
		rep.breaker.failure(now)
		return proxyResult{err: err, upstream: rep.url}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Response torn mid-body: nothing was committed to the client, so
		// this is a clean retry — and a real replica failure.
		rep.failed.Add(1)
		rep.breaker.failure(now)
		return proxyResult{err: fmt.Errorf("response torn mid-body: %w", err), upstream: rep.url}
	}
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		rep.failed.Add(1)
		rep.breaker.failure(now)
	} else {
		rep.breaker.success()
	}
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return proxyResult{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  retryAfter,
		upstream:    rep.url,
		body:        raw,
	}
}
