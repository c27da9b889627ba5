package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdfusion/client"
	"crowdfusion/internal/service"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
)

// clients is the closed loop's width: each client runs a refinement loop
// that waits for every reply before sending its next request.
const clients = 2

// server is one live service under test: a store, service.NewServer over
// it, and an HTTP listener on loopback.
type server struct {
	srv     *service.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string

	// Set from the instruments probe level up.
	store   *timedStore
	handler *handlerTimer
	// Set at the spans probe level.
	rec *trace.Recorder
}

// probe is what a server under test carries beyond the program itself.
type probe int

const (
	// bare is the program alone, as the measured pass runs it.
	bare probe = iota
	// instruments adds the benchmark's timers: a store wrapper, a handler
	// wrapper and a client transport that tags requests.
	instruments
	// spans adds span recording through Config.Tracer and the client's
	// tracer to the instruments.
	spans
)

// startServer serves a fresh volatile store on a new loopback port,
// carrying probe p.
func startServer(p probe) (*server, error) {
	var st store.SessionStore = store.NewMemory()
	s := &server{served: make(chan struct{})}
	cfg := service.Config{Store: st}
	if p >= instruments {
		s.store = newTimedStore(st)
		cfg.Store = s.store
	}
	if p == spans {
		s.rec = trace.NewRecorder("e2ebench")
		cfg.Tracer = trace.New("server", s.rec)
	}
	s.srv = service.NewServer(cfg)
	var h http.Handler = s.srv.Handler()
	if p >= instruments {
		s.handler = newHandlerTimer(h)
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.httpSrv.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop, and closes the
// service (which flushes resident sessions and closes the store).
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	if err != nil {
		return fmt.Errorf("shutting down http server: %w", err)
	}
	return nil
}

// newClient builds one load client with its own connection pool. 503s are
// not retried: a refused request counts as failed.
func (s *server) newClient() (*client.Client, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	var rt http.RoundTripper = tr
	opts := []client.Option{client.WithBackoff(0, 0, 0)}
	if s.handler != nil {
		rt = tagTransport{base: tr}
	}
	if s.rec != nil {
		opts = append(opts, client.WithTracer(trace.New("client", s.rec)))
	}
	opts = append(opts, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute}))
	return client.New(s.base, opts...), tr
}

// roundRec is one committed round as the client saw it.
type roundRec struct {
	Tasks     []int
	Answers   []bool
	Workers   []string
	Marginals []float64 // committed posterior after the round
}

// sessionRec is one session's client-side history: everything the
// correctness and quality checks need.
type sessionRec struct {
	Index   int
	Seed    int64
	ID      string
	Created client.SessionInfo
	Rounds  []roundRec
	// Last is the last acknowledged session state (create or answers).
	Last client.SessionInfo
	// Done reports that the final select answered done.
	Done   bool
	Failed bool
}

// tagPair pairs a request tag with its client-observed duration.
type tagPair struct {
	tag uint64
	us  float64
}

// sample is one timed op: when it completed, relative to the phase start,
// and how long it took as the client saw it.
type sample struct {
	end time.Duration
	ms  float64
}

// loadStats is one client's measurements; merged after the phase.
type loadStats struct {
	create, sel, answer, round []sample
	pairs                      []tagPair
	attempted, failed, rounds  int
	errs                       []error
}

func (a *loadStats) merge(b *loadStats) {
	a.create = append(a.create, b.create...)
	a.sel = append(a.sel, b.sel...)
	a.answer = append(a.answer, b.answer...)
	a.round = append(a.round, b.round...)
	a.pairs = append(a.pairs, b.pairs...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.rounds += b.rounds
	a.errs = append(a.errs, b.errs...)
}

// loadResult is a timed phase's outcome.
type loadResult struct {
	loadStats
	recs []*sessionRec // by session index
	// warmup and window bound the timed window: samples that end before
	// warmup are dropped, and rounds_per_s counts the load slices that lie
	// within [warmup, warmup+window].
	warmup, window time.Duration
	elapsed        time.Duration
	// marks are the calibrations that bound the load slices.
	marks []calMark
	// rssMB is the process's peak RSS at the end of the phase.
	rssMB float64
}

// loader drives the closed loop against one server.
type loader struct {
	w      workload
	pool   []prior
	seed   int64
	tagged bool // requests carry tags for the handler timer

	start     time.Time
	deadline  time.Time
	hardStop  time.Time
	need      need
	next      atomic.Int64
	tags      atomic.Uint64
	rounds    atomic.Int64
	selects   atomic.Int64
	answers   atomic.Int64
	creates   atomic.Int64
	failures  atomic.Int64
	maxFailed int64

	// keepRounds keeps every session's rounds for the checks; otherwise
	// only the quality set's are kept, so memory does not grow with the
	// number of sessions a run gets through.
	keepRounds bool
	pace       pacer

	mu   sync.Mutex
	recs map[int]*sessionRec
}

// need is the sample count a phase must collect before it may stop: ops
// for rounds, selects and answers each, creates for creates.
type need struct{ ops, creates int }

// enough reports whether clients may stop taking new sessions: the timed
// window is over and every op class has its samples.
func (l *loader) enough() bool {
	now := time.Now()
	if now.After(l.hardStop) || l.failures.Load() > l.maxFailed {
		return true
	}
	ops := int64(l.need.ops)
	return now.After(l.deadline) &&
		l.rounds.Load() >= ops && l.selects.Load() >= ops && l.answers.Load() >= ops &&
		l.creates.Load() >= int64(l.need.creates)
}

// warmup is how long the loop runs before its samples count: connections
// open, the heap grows to its working size and caches fill.
const warmup = time.Second

// sliceLen is the load time between two calibrations.
const sliceLen = 100 * time.Millisecond

// calMark is one calibration: the clients were all parked at stop, the
// calibration job took cal, and the clients resumed at resume (both
// relative to the phase start).
type calMark struct {
	stop, resume time.Duration
	cal          time.Duration
}

// pacer parks the clients at their next round boundary so a calibration
// runs on an otherwise idle process. Rounds are never split: a round's
// requests all fall in one load slice.
type pacer struct {
	mu     sync.Mutex
	cond   sync.Cond
	paused bool
	gen    int // bumped on every resume
	parked int
	active int
}

func (p *pacer) init(clients int) {
	p.cond.L = &p.mu
	p.active = clients
}

// wait returns at once unless a pause is on, and then when it ends.
func (p *pacer) wait() {
	p.mu.Lock()
	for p.paused {
		p.parked++
		p.cond.Broadcast()
		for gen := p.gen; gen == p.gen; {
			p.cond.Wait()
		}
		p.parked--
	}
	p.mu.Unlock()
}

// leave takes a client that has stopped out of the count pause waits for.
func (p *pacer) leave() {
	p.mu.Lock()
	p.active--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// pause returns once every running client is parked.
func (p *pacer) pause() {
	p.mu.Lock()
	p.paused = true
	for p.parked < p.active {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

func (p *pacer) resume() {
	p.mu.Lock()
	p.paused = false
	p.gen++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// count adds s to the samples an op class has toward its need, unless s
// ended in the warm-up.
func (l *loader) count(n *atomic.Int64, s sample) {
	if s.end >= warmup {
		n.Add(1)
	}
}

// drive runs the closed loop for the warm-up and then at least seconds.
// Sessions 0..Quality-1 always complete; after the window, clients finish
// their current session and stop once every op class has the samples n
// asks for. Every sliceLen of load, the clients are parked at a round
// boundary and the calibration job runs; the first calibration precedes
// the load and the last follows it.
func drive(ctx context.Context, w workload, pool []prior, seed int64, srv *server, seconds float64, n need, keepRounds bool) (*loadResult, error) {
	window := time.Duration(seconds * float64(time.Second))
	cals := make([]*calibrator, clients)
	for i := range cals {
		cals[i] = newCalibrator()
	}
	start := time.Now()
	l := &loader{
		w: w, pool: pool, seed: seed, tagged: srv.handler != nil,
		start: start, deadline: start.Add(warmup + window), hardStop: start.Add(warmup + 3*window + 60*time.Second),
		need: n, maxFailed: 100, keepRounds: keepRounds,
		recs: make(map[int]*sessionRec),
	}
	l.pace.init(clients)
	calibrateNow := func() calMark {
		stop := time.Since(start)
		d := calibrate(cals)
		return calMark{stop: stop, cal: d, resume: time.Since(start)}
	}
	marks := []calMark{calibrateNow()}

	stats := make([]loadStats, clients)
	transports := make([]*http.Transport, clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, tr := srv.newClient()
		transports[c] = tr
		wg.Add(1)
		go func(st *loadStats) {
			defer wg.Done()
			defer l.pace.leave()
			l.runClient(ctx, cl, st)
		}(&stats[c])
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTimer(sliceLen)
	for running := true; running; {
		select {
		case <-done:
			running = false
			tick.Stop()
		case <-tick.C:
			l.pace.pause()
			marks = append(marks, calibrateNow())
			l.pace.resume()
			tick.Reset(sliceLen)
		}
	}
	marks = append(marks, calibrateNow())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &loadResult{warmup: warmup, window: window, elapsed: time.Since(start), marks: marks, rssMB: rss}
	for c := range stats {
		res.merge(&stats[c])
		transports[c].CloseIdleConnections()
	}
	res.recs = make([]*sessionRec, 0, len(l.recs))
	for _, r := range l.recs {
		res.recs = append(res.recs, r)
	}
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].Index < res.recs[j].Index })
	for i, r := range res.recs {
		if r.Index != i {
			return nil, fmt.Errorf("session %d missing from the run", i)
		}
	}
	if len(res.recs) < w.Quality {
		return nil, fmt.Errorf("only %d of the %d quality-set sessions ran", len(res.recs), w.Quality)
	}
	return res, nil
}

func (l *loader) runClient(ctx context.Context, c *client.Client, st *loadStats) {
	for {
		// Decide to stop before taking an index, so every index taken is
		// run and the sessions form one contiguous range.
		if l.next.Load() >= int64(l.w.Quality) && l.enough() || time.Now().After(l.hardStop) {
			return
		}
		i := int(l.next.Add(1) - 1)
		rec := l.runSession(ctx, c, i, st)
		l.mu.Lock()
		l.recs[i] = rec
		l.mu.Unlock()
	}
}

// op runs one timed request. It returns the client-observed duration, or
// false when the request failed.
func (l *loader) op(ctx context.Context, st *loadStats, f func(context.Context) error) (sample, bool) {
	var tag uint64
	if l.tagged {
		tag = l.tags.Add(1)
		ctx = withTag(ctx, tag)
	}
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	st.attempted++
	if err != nil {
		st.failed++
		l.failures.Add(1)
		if len(st.errs) < 5 {
			st.errs = append(st.errs, err)
		}
		return sample{}, false
	}
	if l.tagged {
		st.pairs = append(st.pairs, tagPair{tag: tag, us: us(d)})
	}
	return sample{end: time.Since(l.start), ms: float64(d.Nanoseconds()) / 1e6}, true
}

// runSession drives session i from create to done.
func (l *loader) runSession(ctx context.Context, c *client.Client, i int, st *loadStats) *sessionRec {
	rec := &sessionRec{Index: i, Seed: sessionSeed(l.seed, i)}
	req := createRequest(l.w, l.pool, l.seed, i)
	sim := newCrowd(l.w, l.pool, l.seed, i)

	var info *client.SessionInfo
	l.pace.wait()
	d, ok := l.op(ctx, st, func(ctx context.Context) (err error) {
		info, err = c.CreateSession(ctx, req)
		return err
	})
	if !ok {
		rec.Failed = true
		return rec
	}
	st.create = append(st.create, d)
	l.count(&l.creates, d)
	rec.ID, rec.Created, rec.Last = info.ID, *info, *info

	keep := l.keepRounds || i < l.w.Quality
	for {
		l.pace.wait()
		var sel *client.SelectResponse
		dSel, ok := l.op(ctx, st, func(ctx context.Context) (err error) {
			sel, err = c.Select(ctx, rec.ID, 0)
			return err
		})
		if !ok {
			rec.Failed = true
			return rec
		}
		st.sel = append(st.sel, dSel)
		l.count(&l.selects, dSel)
		if sel.Done || len(sel.Tasks) == 0 {
			rec.Done = true
			break
		}
		// The simulated crowd answers off the clock.
		rd := roundRec{Tasks: slices.Clone(sel.Tasks)}
		for _, t := range sel.Tasks {
			a, wk := sim.judge(t)
			rd.Answers = append(rd.Answers, a)
			rd.Workers = append(rd.Workers, wk)
		}
		resp, dAns, ok := l.submit(ctx, c, st, rec.ID, sel.Version, rd)
		if !ok {
			rec.Failed = true
			return rec
		}
		st.round = append(st.round, sample{end: dAns.end, ms: dSel.ms + dAns.ms})
		st.rounds++
		l.count(&l.rounds, dAns)
		if keep {
			rd.Marginals = resp.Marginals
			rec.Rounds = append(rec.Rounds, rd)
			rec.Last = resp.SessionInfo
		}
	}
	// Deleting each finished session keeps the heap, and with it the
	// collector's work, the same size however many rounds a run commits.
	l.pace.wait()
	if _, ok := l.op(ctx, st, func(ctx context.Context) error {
		return c.DeleteSession(ctx, rec.ID)
	}); !ok {
		rec.Failed = true
	}
	return rec
}

// submit sends one round's judgments in the workload's answer form and
// returns the committing reply and the summed answer time.
func (l *loader) submit(ctx context.Context, c *client.Client, st *loadStats, id string, version int, rd roundRec) (*client.AnswersResponse, sample, bool) {
	var resp *client.AnswersResponse
	send := func(f func(context.Context) (*client.AnswersResponse, error), last bool) (sample, bool) {
		return l.op(ctx, st, func(ctx context.Context) (err error) {
			resp, err = f(ctx)
			if err == nil && resp.Merged != last {
				// A completing submission must merge; a partial must not.
				err = fmt.Errorf("session %s: reply merged=%v, want %v", id, resp.Merged, last)
			}
			return err
		})
	}
	if l.w.Form == formStream {
		var total sample
		for j, t := range rd.Tasks {
			d, ok := send(func(ctx context.Context) (*client.AnswersResponse, error) {
				return c.SubmitAnswer(ctx, id, t, rd.Answers[j], version, rd.Workers[j])
			}, j == len(rd.Tasks)-1)
			if !ok {
				return nil, sample{}, false
			}
			st.answer = append(st.answer, d)
			l.count(&l.answers, d)
			total = sample{end: d.end, ms: total.ms + d.ms}
		}
		return resp, total, true
	}
	js := make([]client.Judgment, len(rd.Tasks))
	for j, t := range rd.Tasks {
		js[j] = client.Judgment{Task: t, Answer: rd.Answers[j]}
	}
	total, ok := send(func(ctx context.Context) (*client.AnswersResponse, error) {
		return c.SubmitJudgments(ctx, id, js, version, false)
	}, true)
	if !ok {
		return nil, sample{}, false
	}
	st.answer = append(st.answer, total)
	l.count(&l.answers, total)
	return resp, total, true
}
