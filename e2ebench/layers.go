package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
)

// This file holds the per-layer pass's instruments. Each one times calls
// into a layer's public surface from outside; none adds code to the
// program under test.

// timedStore wraps the session store the server is given, timing every
// Put and Append and counting appends per session.
type timedStore struct {
	store.SessionStore

	mu         sync.Mutex
	appendUS   []float64
	putUS      []float64
	appendBusy time.Duration
	appendsBy  map[string]int
}

func newTimedStore(inner store.SessionStore) *timedStore {
	return &timedStore{SessionStore: inner, appendsBy: make(map[string]int)}
}

func (s *timedStore) Append(id string, op store.Op) error {
	start := time.Now()
	err := s.SessionStore.Append(id, op)
	d := time.Since(start)
	s.mu.Lock()
	s.appendUS = append(s.appendUS, us(d))
	s.appendBusy += d
	s.appendsBy[id]++
	s.mu.Unlock()
	return err
}

func (s *timedStore) Put(rec *store.Record) error {
	start := time.Now()
	err := s.SessionStore.Put(rec)
	d := time.Since(start)
	s.mu.Lock()
	s.putUS = append(s.putUS, us(d))
	s.mu.Unlock()
	return err
}

// tagHeader carries the load generator's per-request tag from the client
// transport to the handler timer, so client and handler times of one
// request can be paired.
const tagHeader = "X-Bench-Tag"

type tagKey struct{}

// withTag returns ctx carrying request tag t.
func withTag(ctx context.Context, t uint64) context.Context {
	return context.WithValue(ctx, tagKey{}, t)
}

// tagTransport stamps the context's tag on each outgoing request.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tag, ok := r.Context().Value(tagKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(tagHeader, strconv.FormatUint(tag, 10))
	}
	return t.base.RoundTrip(r)
}

// handlerTimer wraps Server.Handler(), timing each request by route.
type handlerTimer struct {
	next http.Handler

	mu      sync.Mutex
	byRoute map[string][]float64 // µs
	byTag   map[uint64]float64   // µs
}

func newHandlerTimer(next http.Handler) *handlerTimer {
	return &handlerTimer{next: next, byRoute: make(map[string][]float64), byTag: make(map[uint64]float64)}
}

// route classifies a request path into the timed operations.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/sessions":
		return "create"
	case method == http.MethodPost && strings.HasSuffix(path, "/select"):
		return "select"
	case method == http.MethodPost && strings.HasSuffix(path, "/answers"):
		return "answers"
	}
	return "other"
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := us(time.Since(start))
	tag, tagErr := strconv.ParseUint(r.Header.Get(tagHeader), 10, 64)
	rt := route(r.Method, r.URL.Path)
	h.mu.Lock()
	h.byRoute[rt] = append(h.byRoute[rt], d)
	if tagErr == nil {
		h.byTag[tag] = d
	}
	h.mu.Unlock()
}

// scrapeMetrics fetches /metrics and returns every unlabelled sample.
func scrapeMetrics(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerMetrics derives the per-layer metrics: runtime counters from the
// bare phase, everything else from the instruments phase's timers, its
// /metrics scrape and its replay. overheadUS is the span recording's
// cost in round p50.
func layerMetrics(w workload, plain, tr *phaseOut, overheadUS float64) (map[string]metric, error) {
	m := make(map[string]metric)
	var err error
	p50 := func(name string, xs []float64) {
		if err != nil {
			return
		}
		v, perr := percentile(slices.Clone(xs), 500)
		if perr != nil {
			err = fmt.Errorf("%s: %w", name, perr)
			return
		}
		m[name] = metric{Value: v, Unit: "us"}
	}
	rounds := float64(tr.load.rounds)

	var transport []float64
	for _, p := range tr.load.pairs {
		if h, ok := tr.handler.byTag[p.tag]; ok {
			transport = append(transport, p.us-h)
		}
	}
	p50("client.transport_us_p50", transport)

	p50("service.handler_create_us_p50", tr.handler.byRoute["create"])
	p50("service.handler_select_us_p50", tr.handler.byRoute["select"])
	p50("service.handler_answers_us_p50", tr.handler.byRoute["answers"])
	m["service.gate_rejects"] = metric{Value: tr.metrics["crowdfusion_requests_rejected_total"], Unit: "count"}
	width := 0.0
	if n := tr.metrics["crowdfusion_select_batch_width_count"]; n > 0 {
		width = tr.metrics["crowdfusion_select_batch_width_sum"] / n
	}
	m["service.batch_width_mean"] = metric{Value: width, Unit: "count"}
	m["service.worker_refits_per_round"] = metric{Value: tr.metrics["crowdfusion_worker_refits_total"] / rounds, Unit: "count"}

	appends := 0
	for _, r := range tr.load.recs[:w.Quality] {
		appends += tr.store.appendsBy[r.ID]
	}
	m["store.appends_per_round"] = metric{Value: float64(appends) / float64(tr.qualityRound), Unit: "count"}
	p50("store.append_us_p50", tr.store.appendUS)
	p50("store.put_us_p50", tr.store.putUS)
	busy := tr.store.appendBusy.Seconds() / (tr.load.elapsed.Seconds() * clients)
	m["store.append_busy_share"] = metric{Value: busy, Unit: "ratio"}

	p50("core.select_us_p50", tr.layers.sel)
	p50("core.merge_us_p50", tr.layers.merge)
	if w.Model == service.WorkerModelFixed {
		// A fixed-model session never refits: no refit time is spent.
		if n := tr.metrics["crowdfusion_worker_refits_total"]; n != 0 {
			return nil, fmt.Errorf("the server refit %v times on fixed-model sessions", n)
		}
		m["crowd.refit_us_p50"] = metric{Value: 0, Unit: "us"}
	} else {
		p50("crowd.refit_us_p50", tr.layers.refit)
	}

	m["runtime.alloc_kb_per_round"] = metric{Value: plain.allocKB, Unit: "KB"}
	m["runtime.gc_cycles_per_kround"] = metric{Value: plain.gcPerKRound, Unit: "count"}
	m["trace.overhead_us_p50"] = metric{Value: overheadUS, Unit: "us"}
	return m, err
}
