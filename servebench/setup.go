package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ghsom"
	"ghsom/internal/cluster"
	"ghsom/internal/serve"
)

// setupTiming splits one set-up into its stages.
type setupTiming struct {
	train, save, load, ready, total time.Duration
}

// server is one loopback HTTP server and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen serves h on a fresh loopback port with the timeouts the shipped
// CLIs use.
func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// stack is one served deployment: the in-memory trained pipeline (the
// verdict reference), the replicas loaded from its saved envelope, and
// the gateway in front of them when the workload has one.
type stack struct {
	ref      *ghsom.Pipeline
	served   []*ghsom.Pipeline
	regs     []*serve.Registry
	replicas []*server
	gw       *cluster.Gateway
	front    *server // the gateway, or nil when clients talk to replica 0
	timing   setupTiming
}

// url is the base URL the load generator targets.
func (s *stack) url() string {
	if s.front != nil {
		return s.front.url
	}
	return s.replicas[0].url
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, r := range s.replicas {
		r.close()
	}
	for _, reg := range s.regs {
		reg.Close()
	}
	for _, p := range s.served {
		p.Close()
	}
}

// Serving defaults of ghsom-serve and ghsom-gateway.
const (
	serveBatch       = 256
	serveFlush       = 2 * time.Millisecond
	gatewayReplicas  = 2
	gatewayReplicate = 2
)

// deploy trains a pipeline on train, saves and reloads it, starts the
// replicas (and the gateway) and returns once the front answers its
// first /detect with 200. wrap, when non-nil, wraps each handler for
// tracing. The timing covers every step from records in memory to that
// first 200.
func deploy(ctx context.Context, w workload, train []ghsom.Record, probe request, dir string, wrap func(layer string, h http.Handler) http.Handler) (*stack, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	st := &stack{}
	t0 := time.Now()
	ref, err := ghsom.TrainPipeline(train, w.pipelineConfig())
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	st.ref = ref
	t1 := time.Now()
	path := filepath.Join(dir, "model.bin")
	if err := savePipeline(ref, path); err != nil {
		return nil, err
	}
	t2 := time.Now()
	prec, err := ghsom.ParsePrecision("auto")
	if err != nil {
		return nil, err
	}
	n := 1
	if w.gateway {
		n = gatewayReplicas
	}
	for i := 0; i < n; i++ {
		p, err := ghsom.LoadPipelineFile(path, false)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("load: %w", err)
		}
		p.SetParallelism(0)
		p.SetBMUPrecision(prec)
		st.served = append(st.served, p)
	}
	t3 := time.Now()
	for i, p := range st.served {
		reg := serve.NewRegistry(serve.Config{
			Instance:       fmt.Sprintf("replica-%d", i),
			MaxBatch:       serveBatch,
			FlushEvery:     serveFlush,
			Precision:      prec,
			QueueCap:       serve.DefaultQueueCap,
			DefaultTimeout: serve.DefaultJobTimeout,
		})
		st.regs = append(st.regs, reg)
		if _, _, err := reg.Swap(serve.DefaultModelName, p); err != nil {
			st.close()
			return nil, err
		}
		srv, err := listen(wrap("serve", reg.Mux()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, srv)
	}
	if w.gateway {
		urls := make([]string, len(st.replicas))
		for i, r := range st.replicas {
			urls[i] = r.url
		}
		st.gw, err = cluster.New(cluster.Config{Replicas: urls, Instance: "gateway", Replication: gatewayReplicate})
		if err != nil {
			st.close()
			return nil, err
		}
		if st.front, err = listen(wrap("cluster", st.gw.Handler())); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := awaitReady(ctx, st.url(), probe); err != nil {
		st.close()
		return nil, err
	}
	t4 := time.Now()
	st.timing = setupTiming{train: t1.Sub(t0), save: t2.Sub(t1), load: t3.Sub(t2), ready: t4.Sub(t3), total: t4.Sub(t0)}
	return st, nil
}

func savePipeline(p *ghsom.Pipeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := p.Save(bw); err != nil {
		f.Close()
		return fmt.Errorf("save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("save: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	return nil
}

// awaitReady polls the front's /healthz until 200, then posts probe to
// /detect until it answers 200.
func awaitReady(ctx context.Context, base string, probe request) error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	try := func(method, path, ctype string, body []byte) bool {
		req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
		if err != nil {
			return false
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	for _, step := range []struct{ method, path, ctype string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/detect", probe.ctype},
	} {
		var body []byte
		if step.method == http.MethodPost {
			body = probe.body
		}
		for !try(step.method, step.path, step.ctype, body) {
			select {
			case <-ctx.Done():
				return errors.New("servers never became ready")
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}
