package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdfusion/internal/bookdata"
	"crowdfusion/internal/core"
	"crowdfusion/internal/crowd"
	"crowdfusion/internal/dist"
	"crowdfusion/internal/eval"
	"crowdfusion/internal/store"
	"crowdfusion/internal/trace"
	"crowdfusion/internal/worlds"
)

// State machine errors, mapped to HTTP statuses by the server layer.
var (
	// ErrVersionConflict is returned when an answer set references a
	// posterior version that is neither current nor a recognized retry —
	// the client lost a race with another merge and must re-select.
	ErrVersionConflict = errors.New("service: answer set references a stale posterior version; re-select")
	// ErrBudgetExhausted is returned when a merge would spend more tasks
	// than the session budget has left.
	ErrBudgetExhausted = errors.New("service: session budget exhausted")
	// ErrStore is returned when the session store fails: the submission
	// was NOT applied (its one op is persisted before any in-memory change,
	// observations included), so a client seeing this error can safely
	// retry.
	ErrStore = errors.New("service: session store failure")
	// ErrNoPendingBatch rejects a partial answer when no selection is
	// outstanding at the current version: there is no batch to answer.
	ErrNoPendingBatch = errors.New("service: no batch pending at the current version; select first")
	// ErrNotInBatch rejects a partial answer naming a task outside the
	// pending selected batch.
	ErrNotInBatch = errors.New("service: partial answer names a task outside the pending batch")
	// ErrAnswerConflict rejects a judgment contradicting one already
	// journaled for the same task in the pending batch.
	ErrAnswerConflict = errors.New("service: judgment contradicts one already recorded for this task")
)

// errSessionRetired reports that this Session instance was evicted,
// unloaded, or deleted after the caller obtained its pointer. Handlers
// catch it and re-resolve the ID through the manager (one retry); it never
// reaches the wire unless the session retires twice in a row, where it
// maps to a retryable 503.
var errSessionRetired = errors.New("service: session instance retired; re-resolve")

// Session is one refinement loop: a posterior distribution refined round by
// round through the select → await → merge state machine.
//
// Every operation runs under one per-session mutex, so concurrent requests
// against the same session serialize: two merges can never interleave, a
// select always sees a complete posterior, and the version counter names
// each posterior unambiguously. Cross-session requests share nothing and
// run fully in parallel.
type Session struct {
	id       string
	selector core.Selector
	selName  string
	pc       float64
	k        int
	budget   int

	mu        sync.Mutex
	posterior *dist.Joint
	version   int  // number of merges applied
	spent     int  // tasks asked (accounted at merge time)
	done      bool // latched when a selection finds nothing uncertain
	rounds    []RoundInfo

	// sel caches the last selection; valid while selVersion matches the
	// current version and the requested k matches, so clients that retry
	// a select (or poll it from several workers) get one batch per
	// posterior instead of recomputing the greedy sweep.
	sel        *SelectResponse
	selVersion int
	selK       int

	// merges logs applied answer sets by content hash for idempotent
	// replay of retried merges. mergeWorkers remembers, for every round
	// whose observations were journaled, the canonical worker attribution
	// of the committed set — a retry may replay the judgments but never
	// re-attribute them (ErrAttributionConflict).
	merges       map[uint64]*AnswersResponse
	mergeWorkers map[uint64]string

	// Worker model state. workerModel names how crowd accuracy enters
	// merging (fixed / em / dawid-skene); anonWorker is the identity that
	// unattributed (legacy-form) judgments are recorded under.
	// observations accumulates every journaled crowd.Answer-shaped
	// observation in journal order; each entry's Version is the committed
	// posterior version at journaling time, which is what lets recovery
	// reconstruct the exact estimate sequence (the estimates conditioning
	// the merge committed at version v were refit from observations with
	// Version < v only — refits run at commit, after the round's own
	// observations landed but before the next round's merge).
	workerModel string
	anonWorker  string

	observations []store.Observation
	// workerSens/workerSpec are the smoothed per-worker channel estimates
	// from the last refit: the raw estimator output shrunk toward the
	// configured pc by a Beta prior of strength workerPriorStrength, so a
	// worker with no evidence sits exactly at pc. workerRaw keeps the
	// unsmoothed balanced accuracy for reporting. All nil before the
	// first refit (and always, under the fixed model).
	workerSens map[string]float64
	workerSpec map[string]float64
	workerRaw  map[string]float64
	refits     int

	// pendWorkers maps pending-batch tasks to the worker each journaled
	// judgment was attributed to (absent for legacy-form judgments on
	// fixed sessions, which journal no observation).
	pendWorkers map[int]string

	// sensBuf/specBuf are the reusable per-judgment channel buffers for
	// weighted conditioning: the conditioning kernel consumes them before
	// returning, so they recycle across merges and the weighted path stops
	// allocating its channel vectors per call. Guarded by mu like all
	// session scratch.
	sensBuf []float64
	specBuf []float64

	// replaying suppresses observation accumulation inside Merge during
	// record replay: restoreSession re-seeds observations straight from
	// the record (exact journal order and metadata) before replaying each
	// round, so the merge path appending them again would double-count.
	replaying bool

	// onRefit/onWeightedMerge are the metrics hooks (refit latency and
	// weighted-merge count), invoked while holding mu; nil outside a
	// server.
	onRefit         func(time.Duration)
	onWeightedMerge func()

	// Pending-batch ledger for incremental (answer-at-a-time) merging.
	// While pendBatch is non-nil, the selected batch at the current
	// version is being answered one judgment at a time: pendAns holds the
	// judgments received so far, pendTaskH the batch's H(T) from
	// selection, and pendPost the PROVISIONAL posterior — the committed
	// (round-start) posterior conditioned on the answered prefix in ONE
	// batch-order conditioning pass. Recomputing the provisional from the
	// round start on every partial is what makes the eventual commit
	// bit-identical to a batched merge: when the ledger covers the batch,
	// the provisional IS core.MergeAnswers(roundStart, batch, answers, pc)
	// — the exact call the batched path makes. s.posterior itself never
	// moves until commit, so budget and version advance exactly once.
	pendBatch []int
	pendAns   map[int]bool
	pendTaskH float64
	pendPost  *dist.Joint

	// emit, when set, receives a SessionEvent for every state transition
	// (select, partial, merge, done). It is invoked while HOLDING mu —
	// transitions are published in exactly the order they commit — so the
	// hook must never block (the manager's event hub fans out through
	// bounded non-blocking buffers). Nil for sessions without a manager.
	emit func(ev SessionEvent)

	// tracer, when set, records child spans around select, merge, the
	// partial journal, and every persisted op (whose span duration is
	// dominated by the fsync on durable stores). Nil — direct library use,
	// benchmarks, replay — costs only nil checks on the hot path.
	tracer *trace.Tracer

	// lastAccess is the eviction clock, guarded by mu (updated by every
	// operation through touch).
	lastAccess time.Time

	// retired marks this instance as no longer the session's live one:
	// the manager evicted, unloaded, or deleted it while some handler
	// still held the pointer. Mutating operations refuse with
	// errSessionRetired so the handler re-resolves the ID through the
	// manager — otherwise an orphan instance could commit (and persist!)
	// a merge invisible to the successor instance the map now serves.
	retired bool

	// Persistence. priorRec is the prior exactly as the client sent it
	// (raw, pre-normalization), seed the selector seed, created the
	// creation time — together with the rounds trace they are the
	// session's full durable record. persist, when set, is called with
	// each state transition BEFORE it is committed in memory: a merge is
	// acknowledged only after the store has fsynced it. It is nil for
	// sessions that are not manager-owned (tests, replay).
	priorRec store.Prior
	seed     int64
	created  time.Time
	persist  func(op store.Op) error

	// leaseEpoch is the fencing epoch of the write lease this instance
	// holds, stamped on every persisted op and flushed record so the store
	// can refuse writes from a deposed incarnation with ErrFenced. Set by
	// the manager before the instance is published and immutable after —
	// a new acquisition always builds a new instance. 0 when leasing is
	// disabled.
	leaseEpoch uint64
}

// newSession builds a session; the caller (Manager.Create) has validated
// the request and constructed the prior.
func newSession(id string, prior *dist.Joint, selector core.Selector, selName string, pc float64, k, budget int, now time.Time) *Session {
	return &Session{
		id:           id,
		selector:     selector,
		selName:      selName,
		pc:           pc,
		k:            k,
		budget:       budget,
		posterior:    prior,
		merges:       make(map[uint64]*AnswersResponse),
		mergeWorkers: make(map[uint64]string),
		workerModel:  WorkerModelFixed,
		anonWorker:   DefaultAnonWorker,
		lastAccess:   now,
		created:      now,
	}
}

// DefaultAnonWorker is the worker identity unattributed judgments are
// recorded under when no -anon-worker override is configured.
const DefaultAnonWorker = "anon"

// workerPriorStrength is the pseudo-count of the Beta prior anchoring
// every worker's accuracy estimate at the session's configured pc. Four
// pseudo-observations mean a fresh worker starts exactly at pc and a
// worker with n judgments sits at (4·pc + n·estimate)/(4 + n) — strong
// enough that a handful of lucky agreements cannot catapult anyone to
// 0.99, weak enough that a planted adversary's estimate crosses below an
// honest worker's within a couple of rounds.
const workerPriorStrength = 4.0

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// touch advances the eviction clock; callers hold mu.
func (s *Session) touch(now time.Time) {
	if now.After(s.lastAccess) {
		s.lastAccess = now
	}
}

// idleSince returns the last access time for TTL eviction.
func (s *Session) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAccess
}

// infoLocked snapshots the client-visible state; callers hold mu. While a
// partial answer sequence is in flight the distribution fields reflect the
// provisional posterior, Version stays at the committed version, and
// Pending describes the ledger.
func (s *Session) infoLocked(withRounds bool) SessionInfo {
	post := s.posterior
	if s.pendPost != nil {
		post = s.pendPost
	}
	info := SessionInfo{
		ID:          s.id,
		Version:     s.version,
		N:           post.N(),
		SupportSize: post.SupportSize(),
		Marginals:   append([]float64(nil), post.Marginals()...),
		Entropy:     post.Entropy(),
		Utility:     post.Utility(),
		Spent:       s.spent,
		Budget:      s.budget,
		K:           s.k,
		Pc:          s.pc,
		Selector:    s.selName,
		WorkerModel: s.workerModel,
		Done:        s.done || s.spent >= s.budget,
	}
	if s.pendBatch != nil {
		p := &PendingInfo{
			Version:   s.version,
			Tasks:     append([]int(nil), s.pendBatch...),
			Answered:  []AnswerEvent{},
			Remaining: []int{},
		}
		for _, t := range s.pendBatch {
			if a, ok := s.pendAns[t]; ok {
				p.Answered = append(p.Answered, AnswerEvent{Task: t, Answer: a})
			} else {
				p.Remaining = append(p.Remaining, t)
			}
		}
		info.Pending = p
	}
	if withRounds {
		info.Rounds = append([]RoundInfo(nil), s.rounds...)
	}
	return info
}

// emitLocked publishes a state-transition event; callers hold mu. mutate,
// when non-nil, decorates the event (select batches, redirect owners).
// The event is stamped with the trace id of the request that caused the
// transition, so stream consumers can join a merge to its request chain.
func (s *Session) emitLocked(ctx context.Context, typ string, mutate func(*SessionEvent)) {
	if s.emit == nil {
		return
	}
	ev := SessionEvent{Type: typ, SessionInfo: s.infoLocked(false), TraceID: trace.TraceIDFromContext(ctx)}
	if mutate != nil {
		mutate(&ev)
	}
	s.emit(ev)
}

// persistOp runs the persist hook under a span so the op's durability cost
// (the fsync, on durable stores) shows up in the trace. Callers hold mu.
func (s *Session) persistOp(ctx context.Context, op store.Op) error {
	_, sp := s.tracer.Start(ctx, "persist.append")
	sp.SetAttr("session", s.id)
	sp.SetAttr("kind", string(op.Kind))
	sp.SetAttr("version", op.Version)
	err := s.persist(op)
	sp.SetError(err)
	sp.End()
	return err
}

// withSnapshot runs f with the current client-visible state while holding
// the session mutex. Events are published under this same mutex, so
// nothing can be published between the snapshot f sees and whatever
// registration f performs — the foundation of gapless SSE subscription.
func (s *Session) withSnapshot(now time.Time, f func(info SessionInfo)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return errSessionRetired
	}
	s.touch(now)
	f(s.infoLocked(false))
	return nil
}

// peekInfo returns the state WITHOUT advancing the TTL clock — listing a
// node's sessions must not keep every listed session resident forever.
func (s *Session) peekInfo() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked(false)
}

// Info returns the session state, with the per-round trace when withRounds
// is set.
func (s *Session) Info(now time.Time, withRounds bool) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch(now)
	return s.infoLocked(withRounds)
}

// selectIntent is the frozen input of one greedy sweep, captured under the
// session mutex by selectPrepare and consumed outside it: the posterior is
// immutable, so the sweep itself needs no lock — which is what lets a
// merge (or another select's fast path) on the same session proceed while
// a sweep runs.
type selectIntent struct {
	joint    *dist.Joint
	selector core.Selector
	k        int
	pc       float64
	version  int
}

// selectPrepare is the under-lock front half of a select: fast paths
// (pinned pending batch, done latch, cache hit) return a response
// directly; otherwise it freezes the sweep inputs into a selectIntent for
// the caller to compute against and hand back to selectComplete.
func (s *Session) selectPrepare(now time.Time, kOverride int) (resp *SelectResponse, cached bool, intent selectIntent, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, false, intent, errSessionRetired
	}
	s.touch(now)

	if s.pendBatch != nil {
		// An incremental answer sequence is in flight: the pending batch
		// IS the outstanding selection. It stays pinned (even across a k
		// override) until the ledger commits — swapping batches mid-answer
		// would orphan journaled judgments.
		pinned := SelectResponse{
			Tasks:       append([]int(nil), s.pendBatch...),
			TaskEntropy: s.pendTaskH,
			Version:     s.version,
			Cached:      true,
		}
		return &pinned, true, intent, nil
	}

	k := s.k
	if kOverride > 0 {
		k = kOverride
	}
	if remaining := s.budget - s.spent; k > remaining {
		k = remaining
	}
	if n := s.posterior.N(); k > n {
		k = n
	}
	if k <= 0 || s.done {
		return &SelectResponse{Tasks: []int{}, Version: s.version, Done: true}, false, intent, nil
	}
	if s.sel != nil && s.selVersion == s.version && s.selK == k {
		hit := *s.sel
		hit.Cached = true
		return &hit, true, intent, nil
	}
	return nil, false, selectIntent{
		joint:    s.posterior,
		selector: s.selector,
		k:        k,
		pc:       s.pc,
		version:  s.version,
	}, nil
}

// selectComplete is the under-lock back half: it re-validates the intent
// against the current state and commits the sweep's result. stale means
// the posterior moved (or a partial sequence started) while the sweep ran
// off-lock — the result is discarded and the caller re-prepares. When a
// concurrent request already cached an identical selection for the same
// (version, k), that cache is served instead (the sweep is deterministic,
// so the results are interchangeable).
func (s *Session) selectComplete(ctx context.Context, now time.Time, intent selectIntent, tasks []int, selErr error) (resp *SelectResponse, cached, stale bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, false, false, errSessionRetired
	}
	if selErr != nil {
		return nil, false, false, fmt.Errorf("service: selection: %w", selErr)
	}
	if s.version != intent.version || s.pendBatch != nil || s.done {
		return nil, false, true, nil
	}
	if s.sel != nil && s.selVersion == s.version && s.selK == intent.k {
		hit := *s.sel
		hit.Cached = true
		return &hit, true, false, nil
	}

	resp = &SelectResponse{Tasks: tasks, Version: s.version}
	if len(tasks) == 0 {
		// Theorem 2: no remaining task nets positive utility. Latch so
		// later selects and Info report completion without re-sweeping.
		s.done = true
		resp.Done = true
		if s.persist != nil {
			// Best-effort: the latch is derived state — a restarted
			// daemon re-derives it with one re-sweep — so a store
			// hiccup must not fail the read. The persist hook records
			// the failure in the store metrics.
			_ = s.persistOp(ctx, store.Op{Kind: store.OpDone, Version: s.version, Epoch: s.leaseEpoch, Time: now})
		}
		s.emitLocked(ctx, EventDone, nil)
	} else {
		h, err := core.TaskEntropy(s.posterior, tasks, s.pc)
		if err != nil {
			return nil, false, false, err
		}
		resp.TaskEntropy = h
	}
	s.sel = resp
	s.selVersion = s.version
	s.selK = intent.k
	if len(tasks) > 0 {
		s.emitLocked(ctx, EventSelect, func(ev *SessionEvent) {
			ev.Tasks = append([]int(nil), tasks...)
		})
	}
	return resp, false, false, nil
}

// Select returns the next task batch against the current posterior. kOverride
// > 0 replaces the session's per-round k for this batch. The batch size is
// clamped to the remaining budget; an empty batch (Done=true) means the
// budget is spent or nothing uncertain remains.
//
// The selection is cached keyed on (posterior version, effective k):
// repeating the call without an intervening merge returns the identical
// batch with Cached=true instead of re-running the greedy sweep.
//
// The greedy sweep itself runs outside the session mutex against the
// immutable posterior the intent froze; a merge landing mid-sweep moves
// the version and the result is discarded and recomputed, so a committed
// selection always matches its response's Version.
func (s *Session) Select(ctx context.Context, now time.Time, kOverride int) (resp *SelectResponse, cached bool, err error) {
	if s.tracer != nil {
		var sp *trace.Span
		ctx, sp = s.tracer.Start(ctx, "session.select")
		sp.SetAttr("session", s.id)
		defer func() {
			if resp != nil {
				sp.SetAttr("version", resp.Version)
				sp.SetAttr("tasks", len(resp.Tasks))
			}
			sp.SetAttr("cached", cached)
			sp.SetError(err)
			sp.End()
		}()
	}
	for {
		resp, cached, intent, err := s.selectPrepare(now, kOverride)
		if resp != nil || err != nil {
			return resp, cached, err
		}
		tasks, selErr := intent.selector.Select(intent.joint, intent.k, intent.pc)
		done, hit, stale, err := s.selectComplete(ctx, now, intent, tasks, selErr)
		if stale {
			continue
		}
		return done, hit, err
	}
}

// persistError maps a persist failure for the caller: a fenced write
// surfaces as *FencedError — the session has a new owner, the handler
// retires this instance and redirects — while anything else is ErrStore
// (the op was NOT applied; persistence happens before the in-memory
// commit, so the client can safely retry).
func persistError(id string, err error) error {
	var fe *store.FencedError
	if errors.As(err, &fe) {
		return &FencedError{ID: id, Owner: fe.Lease.Owner}
	}
	return fmt.Errorf("%w: %v", ErrStore, err)
}

// answerSetHash fingerprints an answer set (tasks, answers, version) for
// the idempotency log. FNV-1a over the canonical byte rendering; collisions
// would only conflate two retries into one replay, never corrupt state.
func answerSetHash(version int, tasks []int, answers []bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(version))
	for i, t := range tasks {
		put(uint64(t))
		if answers[i] {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// Merge applies a crowd answer set to the posterior (Equation 3) and
// advances the version. It is idempotent by answer-set hash: an answer set
// that was already applied — same tasks, same answers, same referenced
// version — returns the recorded response with Merged=false instead of
// double-counting budget or conditioning twice, which makes network
// retries of POST …/answers safe.
//
// Version semantics: when the request carries a version it must either be
// the current one (the merge applies) or match an already-applied set (the
// recorded response replays); anything else is ErrVersionConflict. When
// the version is omitted, a duplicate of any applied answer set is treated
// as a retry; clients that intend to submit an identical answer set twice
// (possible when the selector re-picks the same tasks and the crowd answers
// identically) must thread the version through to disambiguate.
//
// Partial requests (and any request arriving while a partial sequence is
// in flight) take the incremental path: judgments accumulate against the
// pending selected batch, each journaled through the store before it is
// acknowledged, and the batch commits — spending budget and advancing the
// version exactly once — when the ledger covers the batch. Retried
// prefixes replay idempotently, before and after the commit.
//
// Every submission that changes state journals exactly one op — a merge
// when it commits a batch, a partial otherwise — carrying its judgments'
// worker attribution, so its observations are recorded by the same fsync
// that makes it durable; idempotent replays journal nothing.
func (s *Session) Merge(ctx context.Context, now time.Time, req *AnswersRequest) (resp *AnswersResponse, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tasks, answers, workers, sources, attributed := req.flatten(s.anonWorker)
	if s.tracer != nil {
		var sp *trace.Span
		ctx, sp = s.tracer.Start(ctx, "session.merge")
		sp.SetAttr("session", s.id)
		sp.SetAttr("tasks", len(tasks))
		sp.SetAttr("partial", req.Partial)
		sp.SetAttr("attributed", attributed)
		defer func() {
			if resp != nil {
				sp.SetAttr("merged", resp.Merged)
				sp.SetAttr("version", resp.Version)
			}
			sp.SetError(err)
			sp.End()
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, errSessionRetired
	}
	s.touch(now)
	// Under em/dawid-skene every judgment is an observation, so legacy
	// parallel-array submissions are attributed to the anonymous worker;
	// under fixed, unattributed submissions stay worker-less (and record
	// no observation — their durable log is byte-identical to before
	// worker models existed).
	if workers == nil && s.workerModel != WorkerModelFixed {
		workers = make([]string, len(tasks))
		for i := range workers {
			workers[i] = s.anonWorker
		}
	}

	if req.Version != nil {
		key := answerSetHash(*req.Version, tasks, answers)
		if prev, ok := s.merges[key]; ok {
			if err := s.checkAttributionLocked(key, workers, attributed); err != nil {
				return nil, err
			}
			replay := *prev
			replay.Merged = false
			return &replay, nil
		}
	}
	if req.Partial || s.pendBatch != nil {
		return s.mergePartialLocked(ctx, now, req, tasks, answers, workers, sources, attributed)
	}
	if req.Version != nil {
		if *req.Version != s.version {
			return nil, ErrVersionConflict
		}
	} else {
		// No version: scan for a content match against any applied set.
		for v := 0; v < s.version; v++ {
			key := answerSetHash(v, tasks, answers)
			if prev, ok := s.merges[key]; ok {
				if err := s.checkAttributionLocked(key, workers, attributed); err != nil {
					return nil, err
				}
				replay := *prev
				replay.Merged = false
				return &replay, nil
			}
		}
	}

	if s.spent+len(tasks) > s.budget {
		return nil, fmt.Errorf("%w: %d spent of %d, %d more requested",
			ErrBudgetExhausted, s.spent, s.budget, len(tasks))
	}
	// In the normal select-then-answer flow the batch's H(T) was already
	// computed by Select against this same posterior; reuse it rather
	// than paying the entropy kernel a second time inside the critical
	// section. Out-of-band answer sets still compute it fresh.
	var taskH float64
	if s.sel != nil && s.selVersion == s.version && slices.Equal(s.sel.Tasks, tasks) {
		taskH = s.sel.TaskEntropy
	} else {
		var err error
		taskH, err = core.TaskEntropy(s.posterior, tasks, s.pc)
		if err != nil {
			return nil, err
		}
	}
	updated, err := s.conditionLocked(tasks, answers, workers)
	if err != nil {
		return nil, fmt.Errorf("service: merge: %w", err)
	}
	op := s.judgmentOp(store.OpMerge, now, tasks, answers, workers, sources)
	return s.commitLocked(ctx, op, nil, taskH, updated, false, workers)
}

// canonicalWorkers renders a worker attribution for conflict comparison.
func canonicalWorkers(workers []string) string {
	return strings.Join(workers, "\x1f")
}

// checkAttributionLocked guards an idempotent replay of a committed
// answer set: a retry carrying explicit judgments must attribute them to
// the workers the original commit journaled. Legacy-form retries (no
// judgment attribution to contradict) always pass, as do retries of
// rounds that journaled no observations.
func (s *Session) checkAttributionLocked(key uint64, workers []string, attributed bool) error {
	if !attributed {
		return nil
	}
	rec, ok := s.mergeWorkers[key]
	if !ok || rec == canonicalWorkers(workers) {
		return nil
	}
	return fmt.Errorf("%w: committed attribution %q", ErrAttributionConflict,
		strings.ReplaceAll(rec, "\x1f", ","))
}

// judgmentOp builds the one op an answer submission journals at the
// current version: its judgments and, when they are attributed (workers
// non-nil), their workers and sources — the observations the op records.
// Unattributed judgments on a fixed session record no observation, so
// their op is byte-identical to one written before worker models existed.
func (s *Session) judgmentOp(kind string, now time.Time, tasks []int, answers []bool, workers, sources []string) store.Op {
	op := store.Op{
		Kind:    kind,
		Version: s.version,
		Tasks:   slices.Clone(tasks),
		Answers: slices.Clone(answers),
		Epoch:   s.leaseEpoch,
		Time:    now,
	}
	if workers != nil {
		op.Workers = slices.Clone(workers)
		op.Sources = slices.Clone(sources)
	}
	return op
}

// persistJudgmentsLocked journals one submission's op and, once it is
// durable, appends the observations it carries (skipping the tasks in
// judged, whose partial ops recorded theirs) in exactly the order the
// store's fold derives them — so the live log and a replayed one agree,
// and a refused op leaves the observation log untouched. During record
// replay nothing is journaled and nothing appended: persist is nil and
// restoreSession re-seeds the log from the record itself.
func (s *Session) persistJudgmentsLocked(ctx context.Context, op store.Op, judged []int) error {
	if s.persist != nil {
		if err := s.persistOp(ctx, op); err != nil {
			return persistError(s.id, err)
		}
	}
	if !s.replaying {
		s.observations = append(s.observations, op.Observations(judged)...)
	}
	return nil
}

// workerChannelLocked returns the smoothed (sensitivity, specificity)
// channel for a worker, falling back to the session's scalar pc for
// workers the last refit did not cover (including everyone, before the
// first refit).
func (s *Session) workerChannelLocked(w string) (sens, spec float64) {
	if sn, ok := s.workerSens[w]; ok {
		return sn, s.workerSpec[w]
	}
	return s.pc, s.pc
}

// conditionLocked conditions the committed posterior on one judgment set.
// Fixed sessions — and em/dawid-skene sessions before their first refit —
// take the scalar-pc path; refit sessions condition each judgment on its
// worker's current smoothed channel. The pre-refit equivalence is exact,
// not approximate: with every estimate pinned at pc the weighted
// conditioning delegates to the scalar kernel inside dist, so a fresh
// em session is bit-identical to a fixed one until evidence arrives.
func (s *Session) conditionLocked(tasks []int, answers []bool, workers []string) (*dist.Joint, error) {
	if s.workerModel == WorkerModelFixed || s.refits == 0 || workers == nil {
		return core.MergeAnswers(s.posterior, tasks, answers, s.pc)
	}
	// The conditioning kernel reads the channel vectors before returning
	// and the posterior retains no reference to them, so the session-owned
	// buffers recycle across merges.
	sens := s.sensBuf[:0]
	spec := s.specBuf[:0]
	for _, w := range workers {
		sn, sp := s.workerChannelLocked(w)
		sens = append(sens, sn)
		spec = append(spec, sp)
	}
	s.sensBuf, s.specBuf = sens, spec
	if s.onWeightedMerge != nil {
		s.onWeightedMerge()
	}
	return core.MergeAnswersWeighted(s.posterior, tasks, answers, sens, spec)
}

// refitLocked re-estimates every worker's accuracy from the accumulated
// observation log; callers hold mu and have just committed a merge. The
// raw estimates (symmetric EM or Dawid–Skene, seeded from the session
// seed so recovery replays the identical arithmetic) are shrunk toward
// the configured pc by a Beta prior of strength workerPriorStrength. An
// estimator failure keeps the previous estimates — the merge that
// triggered the refit is already committed and must not be unwound.
func (s *Session) refitLocked(ctx context.Context) {
	if s.workerModel != WorkerModelEM && s.workerModel != WorkerModelDawidSkene {
		return
	}
	if len(s.observations) == 0 {
		return
	}
	start := time.Now()
	answers := make([]crowd.Answer, len(s.observations))
	support := make(map[string]int)
	for i, o := range s.observations {
		answers[i] = crowd.Answer{Fact: o.Task, Value: o.Answer, Worker: o.Worker}
		support[o.Worker]++
	}
	var rawSens, rawSpec map[string]float64
	opts := crowd.EMOptions{Seed: s.seed}
	switch s.workerModel {
	case WorkerModelEM:
		est, err := crowd.EstimateEM(answers, opts)
		if err != nil {
			return
		}
		rawSens, rawSpec = est.WorkerAccuracy, est.WorkerAccuracy
	case WorkerModelDawidSkene:
		est, err := crowd.EstimateDawidSkene(answers, opts)
		if err != nil {
			return
		}
		rawSens, rawSpec = est.Sensitivity, est.Specificity
	}
	s.workerSens = make(map[string]float64, len(rawSens))
	s.workerSpec = make(map[string]float64, len(rawSens))
	s.workerRaw = make(map[string]float64, len(rawSens))
	for w, sn := range rawSens {
		n := float64(support[w])
		sp := rawSpec[w]
		s.workerSens[w] = (workerPriorStrength*s.pc + n*sn) / (workerPriorStrength + n)
		s.workerSpec[w] = (workerPriorStrength*s.pc + n*sp) / (workerPriorStrength + n)
		s.workerRaw[w] = (sn + sp) / 2
	}
	s.refits++
	if s.onRefit != nil {
		s.onRefit(time.Since(start))
	}
	s.emitLocked(ctx, EventRefit, func(ev *SessionEvent) { ev.Refits = s.refits })
}

// commitLocked durably applies one complete answer set — op, an OpMerge
// at the current version — and advances the version; callers hold mu and
// have already conditioned the posterior. Persist-then-commit: the op is
// durable (fsynced, for durable stores) before any in-memory state
// changes, so an acknowledged merge can never be lost — and a failed
// persist leaves the session exactly as it was, observations included,
// safe for the client to retry. judged lists the ledger tasks whose
// observations partial ops already recorded. workers, when non-nil, is the
// judgment attribution; it is recorded against the idempotency entry so a
// conflicting re-attribution on retry is refused, and it triggers the
// post-commit refit.
func (s *Session) commitLocked(ctx context.Context, op store.Op, judged []int, taskH float64, updated *dist.Joint, partial bool, workers []string) (*AnswersResponse, error) {
	tasks, answers := op.Tasks, op.Answers
	if s.spent+len(tasks) > s.budget {
		return nil, fmt.Errorf("%w: %d spent of %d, %d more requested",
			ErrBudgetExhausted, s.spent, s.budget, len(tasks))
	}
	mergedAt := s.version
	if err := s.persistJudgmentsLocked(ctx, op, judged); err != nil {
		return nil, err
	}
	s.posterior = updated
	s.version++
	s.spent += len(tasks)
	s.sel = nil    // selection cache is bound to the previous posterior
	s.done = false // the new posterior may be uncertain again; re-derive
	s.pendBatch, s.pendAns, s.pendPost, s.pendTaskH = nil, nil, nil, 0
	s.pendWorkers = nil
	s.rounds = append(s.rounds, RoundInfo{
		Round:   s.version,
		Tasks:   append([]int(nil), tasks...),
		Answers: append([]bool(nil), answers...),
		CumCost: s.spent,
		Entropy: updated.Entropy(),
		TaskH:   taskH,
	})

	resp := &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: true, Partial: partial}
	key := answerSetHash(mergedAt, tasks, answers)
	s.merges[key] = resp
	if workers != nil {
		s.mergeWorkers[key] = canonicalWorkers(workers)
	}
	s.emitLocked(ctx, EventMerge, nil)
	s.refitLocked(ctx)
	return resp, nil
}

// mergePartialLocked is the incremental answer path; callers hold mu.
//
// The bit-identity contract: the ledger never conditions the committed
// posterior step by step. Every partial recomputes the provisional
// posterior as ONE batch conditioning of the answered prefix (in batch
// order) against the round-start posterior, so when the final judgment
// arrives the provisional is literally core.MergeAnswers(roundStart,
// batch, answers, pc) — the same call, on the same inputs, the batched
// path makes — and the commit reuses it. Budget is spent only inside that
// commit, so no retry of any prefix can double-spend.
func (s *Session) mergePartialLocked(ctx context.Context, now time.Time, req *AnswersRequest, tasks []int, answers []bool, workers, sources []string, attributed bool) (*AnswersResponse, error) {
	if req.Version != nil {
		if *req.Version > s.version {
			return nil, ErrVersionConflict
		}
		if *req.Version < s.version {
			// The batch these judgments belong to already committed. A
			// retried prefix replays idempotently iff every judgment
			// matches the committed round; anything else is a conflict.
			return s.replayCommittedPartialLocked(*req.Version, tasks, answers)
		}
	}

	batch := s.pendBatch
	if batch == nil {
		// First partial of a sequence: pin the outstanding selection.
		if s.sel == nil || s.selVersion != s.version || len(s.sel.Tasks) == 0 {
			return nil, ErrNoPendingBatch
		}
		batch = s.sel.Tasks
	}

	// Validate the judgments against the batch and the ledger before
	// touching any state.
	var newTasks []int
	var newAns []bool
	var newWorkers, newSources []string
	for i, t := range tasks {
		if !slices.Contains(batch, t) {
			return nil, fmt.Errorf("%w: task %d", ErrNotInBatch, t)
		}
		if a, ok := s.pendAns[t]; ok {
			if a != answers[i] {
				return nil, fmt.Errorf("%w: task %d", ErrAnswerConflict, t)
			}
			// An attributed retry of a journaled judgment must carry the
			// attribution it was journaled under.
			if attributed {
				if rec, ok := s.pendWorkers[t]; ok && rec != workers[i] {
					return nil, fmt.Errorf("%w: task %d journaled for worker %q", ErrAttributionConflict, t, rec)
				}
			}
			continue // idempotent duplicate of a journaled judgment
		}
		if j := slices.Index(newTasks, t); j >= 0 {
			if newAns[j] != answers[i] {
				return nil, fmt.Errorf("%w: task %d (twice in one request)", ErrAnswerConflict, t)
			}
			continue
		}
		newTasks = append(newTasks, t)
		newAns = append(newAns, answers[i])
		if workers != nil {
			newWorkers = append(newWorkers, workers[i])
			if sources != nil {
				newSources = append(newSources, sources[i])
			}
		}
	}
	if len(newTasks) == 0 {
		// Pure replay of already-journaled judgments.
		return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}, nil
	}

	// The provisional posterior: one batch conditioning of the answered
	// prefix, in batch order, against the round-start posterior. Worker
	// attribution rides along so em/dawid-skene sessions condition each
	// judgment on its worker's channel; unattributed judgments on fixed
	// sessions leave prefW nil and take the scalar path. judged collects
	// the ledger's tasks, whose observations their partial ops recorded.
	prefT := make([]int, 0, len(s.pendAns)+len(newTasks))
	prefA := make([]bool, 0, len(s.pendAns)+len(newTasks))
	var prefW, prefS []string
	var judged []int
	withWorkers := workers != nil || len(s.pendWorkers) > 0
	for _, t := range batch {
		a, journaled := s.pendAns[t]
		j := -1
		if journaled {
			judged = append(judged, t)
		} else {
			if j = slices.Index(newTasks, t); j < 0 {
				continue
			}
			a = newAns[j]
		}
		prefT = append(prefT, t)
		prefA = append(prefA, a)
		if withWorkers {
			w := ""
			if journaled {
				w = s.pendWorkers[t]
			} else if newWorkers != nil {
				w = newWorkers[j]
			}
			if w == "" {
				w = s.anonWorker
			}
			prefW = append(prefW, w)
		}
		if newSources != nil {
			src := ""
			if !journaled {
				src = newSources[j]
			}
			prefS = append(prefS, src)
		}
	}
	updated, err := s.conditionLocked(prefT, prefA, prefW)
	if err != nil {
		return nil, fmt.Errorf("service: merge: %w", err)
	}

	if len(prefT) == len(batch) {
		// The ledger now covers the batch: commit. The completing
		// judgments are journaled as the batch's OpMerge, never as a
		// partial op — the durable ledger stays a strict subset of its
		// batch, so crash recovery always re-enters the incremental path
		// instead of committing mid-replay. The op carries attribution
		// only when the completing judgments are attributed: the ledger's
		// observations are already recorded.
		taskH := s.pendTaskH
		if s.pendBatch == nil {
			taskH = s.sel.TaskEntropy
		}
		var opW []string
		if newWorkers != nil {
			opW = prefW
		}
		op := s.judgmentOp(store.OpMerge, now, prefT, prefA, opW, prefS)
		return s.commitLocked(ctx, op, judged, taskH, updated, true, prefW)
	}

	// Journal-then-commit, same discipline as merges: the judgments are
	// durable before they are acknowledged or visible.
	op := s.judgmentOp(store.OpPartial, now, newTasks, newAns, newWorkers, newSources)
	op.Batch = slices.Clone(batch)
	if err := s.persistJudgmentsLocked(ctx, op, nil); err != nil {
		return nil, err
	}
	if s.pendBatch == nil {
		s.pendBatch = slices.Clone(batch)
		s.pendAns = make(map[int]bool, len(batch))
		s.pendWorkers = make(map[int]string, len(batch))
		s.pendTaskH = s.sel.TaskEntropy
	}
	for i, t := range newTasks {
		s.pendAns[t] = newAns[i]
		if newWorkers != nil {
			s.pendWorkers[t] = newWorkers[i]
		}
	}
	s.pendPost = updated
	resp := &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}
	s.emitLocked(ctx, EventPartial, nil)
	return resp, nil
}

// replayCommittedPartialLocked serves a retried partial prefix whose batch
// has already committed: idempotent (Merged=false, no spend) when every
// judgment matches the committed round at that version, ErrVersionConflict
// otherwise. The response carries the CURRENT state — the prefix's
// provisional posteriors are gone once the batch commits.
func (s *Session) replayCommittedPartialLocked(version int, tasks []int, answers []bool) (*AnswersResponse, error) {
	if version < 0 || version >= len(s.rounds) {
		return nil, ErrVersionConflict
	}
	r := s.rounds[version] // the round committed FROM that version
	for i, t := range tasks {
		j := slices.Index(r.Tasks, t)
		if j < 0 || r.Answers[j] != answers[i] {
			return nil, ErrVersionConflict
		}
	}
	return &AnswersResponse{SessionInfo: s.infoLocked(false), Merged: false, Partial: true}, nil
}

// Posterior returns the current posterior distribution (immutable; safe to
// share).
func (s *Session) Posterior() *dist.Joint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posterior
}

// Calibration reports how well the session's per-task marginals are
// calibrated, binned over [0,1], plus the per-worker accuracy estimates
// behind the current posterior. True labels are unknown in production, so
// the report scores against the pseudo-gold induced by the committed
// posterior itself (the MAP label per task): perfect calibration then
// means "the marginals are as confident as their own argmax labels
// warrant", and per-worker Correct counts agreement with that consensus.
func (s *Session) Calibration(now time.Time, nBins int) (*CalibrationResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return nil, errSessionRetired
	}
	s.touch(now)
	marginals := s.posterior.Marginals()
	gold := make([]bool, len(marginals))
	for i, p := range marginals {
		gold[i] = p >= 0.5
	}
	inst := &worlds.Instance{Statements: make([]bookdata.Statement, len(marginals)), Gold: gold}
	cal, err := eval.CalibrationReport([]*worlds.Instance{inst}, []*dist.Joint{s.posterior}, nBins)
	if err != nil {
		return nil, fmt.Errorf("service: calibration: %w", err)
	}
	resp := &CalibrationResponse{
		ID:           s.id,
		Version:      s.version,
		WorkerModel:  s.workerModel,
		Refits:       s.refits,
		Observations: len(s.observations),
		Bins:         make([]CalibrationBinInfo, len(cal.Bins)),
		ECE:          cal.ECE,
		Brier:        cal.Brier,
		Total:        cal.Total,
		Workers:      s.workerInfosLocked(gold),
	}
	for i, b := range cal.Bins {
		resp.Bins[i] = CalibrationBinInfo{
			Lo: b.Lo, Hi: b.Hi, Count: b.Count,
			MeanPredicted: b.MeanPredicted, EmpiricalRate: b.EmpiricalRate,
		}
	}
	return resp, nil
}

// workerInfosLocked builds the per-worker view: support and consensus
// agreement from the observation log, the smoothed channel estimate the
// next weighted merge will use, and a Wilson interval on the agreement
// rate. gold is the pseudo-gold labeling from the committed posterior;
// callers hold mu.
func (s *Session) workerInfosLocked(gold []bool) []WorkerInfo {
	type tally struct{ support, correct, trues int }
	tallies := make(map[string]*tally)
	for _, o := range s.observations {
		t := tallies[o.Worker]
		if t == nil {
			t = &tally{}
			tallies[o.Worker] = t
		}
		t.support++
		if o.Answer {
			t.trues++
		}
		if o.Task >= 0 && o.Task < len(gold) && o.Answer == gold[o.Task] {
			t.correct++
		}
	}
	infos := make([]WorkerInfo, 0, len(tallies))
	for w, t := range tallies {
		sens, spec := s.workerChannelLocked(w)
		info := WorkerInfo{
			Worker:   w,
			Accuracy: (sens + spec) / 2,
			Raw:      s.pc,
			Bias:     0.5,
			Support:  t.support,
			Correct:  t.correct,
		}
		if raw, ok := s.workerRaw[w]; ok {
			info.Raw = raw
		}
		if t.support > 0 {
			info.Bias = float64(t.trues) / float64(t.support)
		}
		info.WilsonLo, info.WilsonHi = crowd.WilsonInterval(t.correct, t.support)
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Worker < infos[j].Worker })
	return infos
}

// WorkerStats returns the session's per-worker view without touching the
// TTL clock — the fleet aggregation sweeping every resident session must
// not keep them all alive forever.
func (s *Session) WorkerStats() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	marginals := s.posterior.Marginals()
	gold := make([]bool, len(marginals))
	for i, p := range marginals {
		gold[i] = p >= 0.5
	}
	return s.workerInfosLocked(gold)
}

// record snapshots the session's full durable state: creation parameters
// plus the applied merge history (the rounds trace IS the op log). The
// posterior itself is deliberately not serialized — recovery replays the
// ops through the same conditioning arithmetic, which is what makes a
// restored posterior bit-identical rather than merely close.
func (s *Session) record() *store.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked()
}

// recordLocked is record for callers already holding mu.
func (s *Session) recordLocked() *store.Record {
	rec := &store.Record{
		ID:         s.id,
		Selector:   s.selName,
		Pc:         s.pc,
		K:          s.k,
		Budget:     s.budget,
		Seed:       s.seed,
		Prior:      s.priorRec,
		Created:    s.created,
		LastAccess: s.lastAccess,
		Done:       s.done,
		LeaseEpoch: s.leaseEpoch,
	}
	if s.workerModel != WorkerModelFixed {
		// Recorded only when it carries information: a fixed session's
		// record stays byte-identical to one written before worker models
		// existed.
		rec.WorkerModel = s.workerModel
	}
	if len(s.observations) > 0 {
		rec.Observations = append([]store.Observation(nil), s.observations...)
	}
	rec.Ops = make([]store.Op, len(s.rounds))
	for i, r := range s.rounds {
		rec.Ops[i] = store.Op{
			Kind:    store.OpMerge,
			Version: r.Round - 1, // Round is 1-based; the op version is the pre-merge version
			Tasks:   append([]int(nil), r.Tasks...),
			Answers: append([]bool(nil), r.Answers...),
		}
	}
	if s.pendBatch != nil {
		rec.PendingBatch = append([]int(nil), s.pendBatch...)
		for _, t := range s.pendBatch {
			if a, ok := s.pendAns[t]; ok {
				rec.PendingTasks = append(rec.PendingTasks, t)
				rec.PendingAnswers = append(rec.PendingAnswers, a)
			}
		}
	}
	return rec
}

// flush writes the session's full record to the store while HOLDING the
// session mutex. The mutex matters: store.Put truncates the session's op
// log, so a concurrent Merge (which appends to that log before committing)
// slipping between the record snapshot and the Put could have its
// acknowledged, fsynced op wiped. Serializing flush against the state
// machine makes that interleaving impossible.
func (s *Session) flush(st store.SessionStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.Put(s.recordLocked())
}

// retire marks this instance dead for mutations (see the retired field).
func (s *Session) retire() {
	s.mu.Lock()
	s.retired = true
	s.mu.Unlock()
}

// retireAndFlush atomically flushes the record and retires the instance:
// no merge can land on this instance after the flushed snapshot, so the
// snapshot plus the store's log is always the session's complete history.
// The instance is retired even when the flush fails — it is leaving the
// manager's map either way, and its merges are already in the op log.
func (s *Session) retireAndFlush(st store.SessionStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := st.Put(s.recordLocked())
	s.retired = true
	return err
}

// restoreSession rebuilds a live session from its durable record by
// replaying every merge against the reconstructed prior. Both steps run
// the exact code paths that produced the original state — dist.Independent
// or dist.New for the prior, Session.Merge for each op — so the recovered
// posterior, version, budget accounting, rounds trace, and idempotency log
// match the pre-crash session bit for bit. Random selectors are re-seeded
// from the recorded seed; their stream position within the session is not
// recovered (selection is a fresh draw after restart, which is sound: no
// batch was outstanding durably).
//
// Worker-model sessions additionally replay their observation log in
// journal order: before the merge op at version v replays, every recorded
// observation with Version <= v is re-seeded, so the refit that ran at
// each pre-crash commit reruns over the identical evidence — seeded by the
// same session seed — and the recovered worker estimates and weighted
// posterior match bit for bit too. The replaying flag keeps the merge
// path from appending those observations a second time.
func restoreSession(rec *store.Record, anonWorker string, now time.Time) (*Session, error) {
	var prior *dist.Joint
	var err error
	switch {
	case len(rec.Prior.Marginals) > 0:
		prior, err = dist.Independent(rec.Prior.Marginals)
	case len(rec.Prior.Worlds) > 0:
		ws := make([]dist.World, len(rec.Prior.Worlds))
		for i, w := range rec.Prior.Worlds {
			ws[i] = dist.World(w)
		}
		prior, err = dist.New(rec.Prior.N, ws, rec.Prior.Probs)
	default:
		err = fmt.Errorf("record has no prior")
	}
	if err != nil {
		return nil, fmt.Errorf("service: restoring session %s: %w", rec.ID, err)
	}
	selector, err := eval.NewSelector(eval.SelectorKind(rec.Selector), rec.Seed)
	if err != nil {
		return nil, fmt.Errorf("service: restoring session %s: %w", rec.ID, err)
	}
	// newSession stamps lastAccess = now deliberately: loading IS an
	// access, so the TTL clock restarts rather than resuming from the
	// recorded LastAccess (which would evict a just-recovered session on
	// its next sweep). The persisted LastAccess exists for operators
	// inspecting records on disk, not for the live eviction clock.
	s := newSession(rec.ID, prior, selector, rec.Selector, rec.Pc, rec.K, rec.Budget, now)
	s.priorRec = rec.Prior
	s.seed = rec.Seed
	s.created = rec.Created
	if rec.WorkerModel != "" {
		s.workerModel = rec.WorkerModel
	}
	if anonWorker != "" {
		s.anonWorker = anonWorker
	}
	s.replaying = true
	// persist stays nil during replay: the ops are already durable (and the
	// tracer is nil, so replayed merges produce no spans — the adoption
	// span in loadFromStore covers the whole replay instead).
	obsIdx := 0
	seedObservations := func(upTo int) {
		for obsIdx < len(rec.Observations) && rec.Observations[obsIdx].Version <= upTo {
			s.observations = append(s.observations, rec.Observations[obsIdx])
			obsIdx++
		}
	}
	for _, op := range rec.Ops {
		v := op.Version
		// The round's observations landed before its commit refit, so they
		// re-seed first: the refit this replayed commit triggers sees the
		// same evidence the pre-crash one did.
		s.mu.Lock()
		seedObservations(v)
		req := &AnswersRequest{Version: &v}
		if s.workerModel != WorkerModelFixed {
			// Replay through the judgments form so the weighted conditioning
			// sees each judgment's recorded attribution, not the anonymous
			// fallback the legacy form would apply.
			req.Judgments = replayJudgments(op.Tasks, op.Answers, s.observations, v, s.anonWorker)
		} else {
			req.Tasks, req.Answers = op.Tasks, op.Answers
		}
		s.mu.Unlock()
		if _, err := s.Merge(context.Background(), now, req); err != nil {
			return nil, fmt.Errorf("service: restoring session %s: replaying op %d: %w", rec.ID, v, err)
		}
	}
	s.mu.Lock()
	seedObservations(s.version)
	s.done = rec.Done
	s.mu.Unlock()
	if len(rec.PendingBatch) > 0 {
		// A partial answer sequence was in flight at the crash. Re-pin
		// the recorded batch as the outstanding selection (TaskEntropy is
		// deterministic in the posterior, so recomputing it reproduces
		// the pre-crash value), then replay the journaled judgments
		// through the same partial path that first recorded them — the
		// provisional posterior comes back bit-identical.
		s.mu.Lock()
		taskH, err := core.TaskEntropy(s.posterior, rec.PendingBatch, s.pc)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("service: restoring session %s: pending batch: %w", rec.ID, err)
		}
		s.sel = &SelectResponse{
			Tasks:       append([]int(nil), rec.PendingBatch...),
			TaskEntropy: taskH,
			Version:     s.version,
		}
		s.selVersion = s.version
		s.selK = len(rec.PendingBatch)
		v := s.version
		s.mu.Unlock()
		if len(rec.PendingTasks) > 0 {
			req := &AnswersRequest{Version: &v, Partial: true}
			if s.workerModel != WorkerModelFixed {
				s.mu.Lock()
				req.Judgments = replayJudgments(rec.PendingTasks, rec.PendingAnswers, s.observations, v, s.anonWorker)
				s.mu.Unlock()
			} else {
				req.Tasks, req.Answers = rec.PendingTasks, rec.PendingAnswers
			}
			if _, err := s.Merge(context.Background(), now, req); err != nil {
				return nil, fmt.Errorf("service: restoring session %s: replaying pending ledger: %w", rec.ID, err)
			}
		}
	}
	s.mu.Lock()
	s.replaying = false
	s.mu.Unlock()
	return s, nil
}

// replayJudgments rebuilds the judgments form for a replayed answer set
// from the observation log: each task takes the worker of the last
// observation recorded for it at that version (in a log written by an
// older binary, a retried observe op lands last, so the latest entry is the
// one whose commit succeeded), falling back to the anonymous worker for
// tasks the log does not cover.
func replayJudgments(tasks []int, answers []bool, observations []store.Observation, version int, anon string) []Judgment {
	byTask := make(map[int]store.Observation, len(tasks))
	for _, o := range observations {
		if o.Version == version {
			byTask[o.Task] = o
		}
	}
	js := make([]Judgment, len(tasks))
	for i, t := range tasks {
		js[i] = Judgment{Task: t, Answer: answers[i], Worker: anon}
		if o, ok := byTask[t]; ok && o.Answer == answers[i] {
			js[i].Worker = o.Worker
			js[i].Source = o.Source
		}
	}
	return js
}
