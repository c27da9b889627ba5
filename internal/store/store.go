// Package store persists refinement sessions for the crowdfusiond service.
//
// The refinement loop is stateful by construction: every crowd answer
// conditions the joint posterior, so losing a session mid-refinement throws
// away paid crowd budget. This package makes sessions durable behind one
// small interface, SessionStore, with two implementations:
//
//   - Memory: the in-process store — fast, conformant, gone on restart;
//   - File: a pure-stdlib durable store — one snapshot file plus one
//     append-only op log per session, fsynced before a merge is
//     acknowledged, with automatic log compaction back into the snapshot.
//
// A session is persisted as its Record: the creation parameters (the prior
// in its raw wire shape, selector, pc, k, budget, seed) plus the ordered
// log of applied merge Ops. The service layer reconstructs the live session
// by replaying the ops through the same deterministic conditioning path
// that produced the original posterior, which is what makes recovery
// bit-identical: the posterior after a restart is not deserialized, it is
// recomputed by exactly the arithmetic that built it the first time.
package store

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// Store errors.
var (
	// ErrNotExist is returned by Get and Append for an ID with no record.
	ErrNotExist = errors.New("store: session record does not exist")
	// ErrBadID is returned for session IDs unsafe to use as file names.
	ErrBadID = errors.New("store: invalid session id")
	// ErrCorrupt is returned when a snapshot cannot be decoded or an op
	// sequence has a version gap that replay cannot bridge — the history
	// itself diverged or is unreadable. A corrupt log *tail* is not an
	// error — Load recovers to the last good record. Contrast ErrFenced
	// (lease.go): there the history is intact but the writer has lost the
	// session's lease and may no longer extend it.
	ErrCorrupt = errors.New("store: corrupt session record")
)

// Op kinds. The op log records state transitions, not reads: merges (the
// only transition that changes the posterior), partial judgments for a
// batch still being answered, and the done latch (a select that proved no
// remaining task nets positive utility). One answer submission is one op.
const (
	// OpMerge is one applied answer set: the session's posterior at
	// Version was conditioned on (Tasks, Answers). Workers/Sources, when
	// present, attribute the judgments and fold into the record's
	// Observations.
	OpMerge = "merge"
	// OpDone latches session completion at Version. It carries no tasks.
	OpDone = "done"
	// OpPartial journals single crowd judgments for the batch selected at
	// Version, before the batch is complete. Partial ops accumulate into
	// the record's pending ledger and do not advance the version; the
	// OpMerge that eventually commits the batch supersedes them. Batch
	// carries the full selected batch so recovery can re-pin the exact
	// selection the judgments answer.
	OpPartial = "partial"
	// OpObserve is legacy and read-only: older binaries journaled
	// worker-attributed judgments as a separate op ahead of the merge or
	// partial consuming them. Replay still folds such ops from existing
	// logs; no code path writes one, and Append refuses it with ErrCorrupt.
	OpObserve = "observe"
)

// Op is one logged state transition. Merge ops are ordered by Version: the
// op with Version v is the v'th merge applied to the session, so a
// replayed record's ops always read 0, 1, 2, … — which is also what lets a
// crashed compaction be healed by skipping already-folded versions.
type Op struct {
	Kind    string `json:"op"`
	Version int    `json:"version"`
	Tasks   []int  `json:"tasks,omitempty"`
	Answers []bool `json:"answers,omitempty"`
	// Batch is the full selected batch a partial op's judgments belong to,
	// in selection order. Only OpPartial carries it.
	Batch []int `json:"batch,omitempty"`
	// Workers attributes each judgment of a merge or partial op to its
	// worker, parallel to Tasks/Answers; absent for unattributed judgments
	// (which record no observations). Sources optionally names each
	// judgment's originating platform (parallel when present, and only
	// alongside Workers). Seq appears only in legacy observe ops: the
	// record's observation count before the op.
	Workers []string `json:"workers,omitempty"`
	Sources []string `json:"sources,omitempty"`
	Seq     int      `json:"seq,omitempty"`
	// Epoch is the fencing epoch of the lease this op was written under,
	// 0 when the session is not leased. Append refuses ops whose epoch is
	// not the lease's current epoch with ErrFenced (see lease.go).
	Epoch uint64 `json:"epoch,omitempty"`
	// Time advances the record's LastAccess on load; it never affects
	// replay arithmetic.
	Time time.Time `json:"time,omitzero"`
}

// Observations returns the worker-attributed judgments op carries, in op
// order, skipping tasks in judged (an open ledger whose partial ops already
// recorded theirs). Each takes the op's Version and Time. An op without
// Workers carries none.
func (o Op) Observations(judged []int) []Observation {
	if len(o.Workers) == 0 {
		return nil
	}
	var obs []Observation
	for i, t := range o.Tasks {
		if slices.Contains(judged, t) {
			continue
		}
		ob := Observation{Task: t, Answer: o.Answers[i], Worker: o.Workers[i], Version: o.Version, Time: o.Time}
		if len(o.Sources) != 0 {
			ob.Source = o.Sources[i]
		}
		obs = append(obs, ob)
	}
	return obs
}

// Observation is one worker-attributed crowd judgment folded into a
// record — the durable unit the online worker models are estimated from.
// Version is the session version current when the judgment arrived, which
// is what lets recovery reconstruct the exact estimate sequence: the
// worker estimates feeding the merge of the batch selected at version v
// were refit from observations with Version < v only.
type Observation struct {
	Task    int       `json:"task"`
	Answer  bool      `json:"answer"`
	Worker  string    `json:"worker"`
	Source  string    `json:"source,omitempty"`
	Version int       `json:"version"`
	Time    time.Time `json:"time,omitzero"`
}

// Prior is the session's initial distribution exactly as the client sent
// it: either per-fact marginals or an explicit sparse joint in the wire
// shape (n, worlds, probs). The raw form is stored — not the normalized
// posterior — so rebuilding it passes through the same constructor with the
// same inputs and yields the same bits.
type Prior struct {
	Marginals []float64 `json:"marginals,omitempty"`
	N         int       `json:"n,omitempty"`
	Worlds    []uint64  `json:"worlds,omitempty"`
	Probs     []float64 `json:"probs,omitempty"`
}

// Record is the durable form of one session: creation parameters plus the
// compacted op history. Ops holds merge ops only, in version order; the
// done latch is folded into the Done flag.
type Record struct {
	ID       string  `json:"id"`
	Selector string  `json:"selector"`
	Pc       float64 `json:"pc"`
	K        int     `json:"k"`
	Budget   int     `json:"budget"`
	Seed     int64   `json:"seed"`
	Prior    Prior   `json:"prior"`

	Created time.Time `json:"created"`
	// LastAccess is the freshness of the record on disk (advanced by op
	// times on load). It is operator-facing: the service restarts a
	// recovered session's TTL clock at load time rather than resuming
	// from this value.
	LastAccess time.Time `json:"last_access"`

	Done bool `json:"done,omitempty"`
	Ops  []Op `json:"ops,omitempty"`

	// LeaseEpoch is the fencing epoch of the lease this snapshot was
	// written under, 0 when the session is not leased. Put refuses
	// snapshots whose epoch is not the lease's current epoch with
	// ErrFenced, exactly as Append does for ops.
	LeaseEpoch uint64 `json:"lease_epoch,omitempty"`

	// Pending ledger: crowd judgments journaled for the batch selected at
	// version len(Ops) but not yet committed by a merge. PendingBatch is
	// the full selected batch in selection order; PendingTasks/
	// PendingAnswers are the judgments received so far, in arrival order.
	// The ledger is always a strict subset of the batch — the judgment
	// that completes a batch is journaled as its OpMerge, never as a
	// partial — so recovery re-enters the incremental path rather than
	// committing.
	PendingBatch   []int  `json:"pending_batch,omitempty"`
	PendingTasks   []int  `json:"pending_tasks,omitempty"`
	PendingAnswers []bool `json:"pending_answers,omitempty"`

	// WorkerModel names the session's worker-accuracy model ("fixed" when
	// empty): a creation parameter like Selector, stored so recovery refits
	// the same estimator.
	WorkerModel string `json:"worker_model,omitempty"`
	// Observations is the session's worker-attributed judgment history in
	// arrival order, folded from the attributed merge and partial ops —
	// the input the online worker models are refit from on recovery.
	Observations []Observation `json:"observations,omitempty"`
}

// SessionStore persists session records. Implementations must be safe for
// concurrent use across sessions; per-session write ordering (op versions
// arriving in sequence) is the caller's responsibility — the service layer
// already serializes each session behind its mutex.
type SessionStore interface {
	// Durable reports whether records survive a process restart. The
	// session manager uses it to pick TTL-eviction semantics: durable
	// stores flush-and-unload (the session reloads lazily on next touch),
	// volatile stores drop (the session is expired for good).
	Durable() bool
	// Put writes a full snapshot of the record, replacing any previous
	// snapshot and discarding the session's op log — Put is also the
	// compaction primitive. The record is copied; the caller keeps
	// ownership.
	Put(rec *Record) error
	// Append durably logs one op for an existing record. For durable
	// stores the op is synced to stable storage before Append returns:
	// once a merge is acknowledged it survives SIGKILL. Ops must extend
	// the record in strict version order — a stale or gapped version is
	// rejected with ErrCorrupt (retries are the caller's to deduplicate;
	// a stale append signals a divergent second writer).
	Append(id string, op Op) error
	// Get returns the record with all logged ops folded in, or
	// ErrNotExist. The result is a private copy.
	Get(id string) (*Record, error)
	// Delete removes the record and its log, reporting whether it existed.
	Delete(id string) (bool, error)
	// List returns the IDs of every stored record, sorted
	// lexicographically, in a slice the caller owns. Deterministic order
	// makes boot-time ownership scans and multi-node operator tooling
	// comparable across stores and across nodes.
	List() ([]string, error)
	// Close releases store resources. The store is unusable afterwards.
	Close() error

	// AcquireLease takes (or refreshes) the session's write lease for
	// owner, valid for ttl from now. It grants when the session is
	// unleased, the lease is expired or released, or owner already holds
	// it (same holder, same epoch); a change of holder mints a strictly
	// higher epoch. A different holder's unexpired lease blocks with
	// ErrLeaseHeld (a *LeaseHeldError carrying the blocker). Leases may be
	// acquired before the record exists — Create acquires first so the
	// initial Put is already fenced.
	AcquireLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error)
	// StealLease takes the lease unconditionally at a strictly higher
	// epoch, deposing an unexpired holder. Callers should have independent
	// evidence the holder is gone (the cluster ring's liveness view); the
	// epoch keeps even an unjustified steal safe — the deposed holder's
	// writes fence rather than fork.
	StealLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error)
	// RenewLease extends the holder's lease by ttl from now. The renewal
	// is fenced like a write: a stale epoch or a changed holder returns
	// ErrFenced, which is how a deposed owner discovers it lost the
	// session.
	RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error)
	// ReleaseLease clears the holder, keeping the epoch as a permanent
	// fence: writes from the released incarnation still bounce, and the
	// next acquisition mints a higher epoch. Releasing a never-leased
	// session is a no-op; releasing after being superseded returns
	// ErrFenced (callers typically just log it).
	ReleaseLease(id, owner string, epoch uint64) error
	// GetLease returns the session's current lease, or nil when the
	// session has never been leased.
	GetLease(id string) (*Lease, error)
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	c := *r
	c.Prior.Marginals = append([]float64(nil), r.Prior.Marginals...)
	c.Prior.Worlds = append([]uint64(nil), r.Prior.Worlds...)
	c.Prior.Probs = append([]float64(nil), r.Prior.Probs...)
	c.Ops = make([]Op, len(r.Ops))
	for i, op := range r.Ops {
		c.Ops[i] = op.clone()
	}
	c.PendingBatch = append([]int(nil), r.PendingBatch...)
	c.PendingTasks = append([]int(nil), r.PendingTasks...)
	c.PendingAnswers = append([]bool(nil), r.PendingAnswers...)
	c.Observations = append([]Observation(nil), r.Observations...)
	return &c
}

// clone deep-copies one op.
func (o Op) clone() Op {
	c := o
	c.Tasks = append([]int(nil), o.Tasks...)
	c.Answers = append([]bool(nil), o.Answers...)
	c.Batch = append([]int(nil), o.Batch...)
	c.Workers = append([]string(nil), o.Workers...)
	c.Sources = append([]string(nil), o.Sources...)
	return c
}

// validate checks the structural invariants a snapshot must satisfy before
// ops can be folded onto it: merge-only ops numbered 0..len-1.
func (r *Record) validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty id", ErrCorrupt)
	}
	for i, op := range r.Ops {
		if op.Kind != OpMerge {
			return fmt.Errorf("%w: snapshot op %d has kind %q", ErrCorrupt, i, op.Kind)
		}
		if op.Version != i {
			return fmt.Errorf("%w: snapshot op %d has version %d", ErrCorrupt, i, op.Version)
		}
		if err := checkJudgments(op); err != nil {
			return fmt.Errorf("snapshot op %d: %w", i, err)
		}
	}
	if err := r.validatePending(); err != nil {
		return err
	}
	if err := r.validateObservations(); err != nil {
		return err
	}
	return nil
}

// validateObservations checks the observation-history invariants: every
// observation attributed to a named worker, versions within the folded op
// range and non-decreasing (arrival order).
func (r *Record) validateObservations() error {
	prev := 0
	for i, obs := range r.Observations {
		if obs.Worker == "" {
			return fmt.Errorf("%w: observation %d has no worker", ErrCorrupt, i)
		}
		if obs.Task < 0 {
			return fmt.Errorf("%w: observation %d has task %d", ErrCorrupt, i, obs.Task)
		}
		if obs.Version < prev || obs.Version > len(r.Ops) {
			return fmt.Errorf("%w: observation %d has version %d (ops %d, prev %d)",
				ErrCorrupt, i, obs.Version, len(r.Ops), prev)
		}
		prev = obs.Version
	}
	return nil
}

// validatePending checks the pending-ledger invariants by admitting the
// ledger as one partial op against its batch: paired judgment slices,
// every answered task a member of the batch, no duplicate judgments, and a
// ledger strictly smaller than its batch.
func (r *Record) validatePending() error {
	if len(r.PendingTasks) == 0 && len(r.PendingAnswers) == 0 {
		return nil
	}
	ledger := Op{Kind: OpPartial, Version: len(r.Ops), Tasks: r.PendingTasks, Answers: r.PendingAnswers, Batch: r.PendingBatch}
	if err := admit(ledger, len(r.Ops), nil, nil); err != nil {
		return fmt.Errorf("pending ledger: %w", err)
	}
	return nil
}

// errStale marks an op whose version the record has already folded. The
// read path skips such ops — a compaction that crashed between writing the
// snapshot and truncating the log leaves them behind — while Append refuses
// them like any other corrupt op: retries are deduplicated before they
// reach the store, so a stale append means a divergent second writer.
var errStale = fmt.Errorf("%w: op version already folded", ErrCorrupt)

// admit is the one op-admission check, shared by Record.fold and both
// stores' Append: it reports why op cannot extend a record whose next merge
// version is next and whose open pending ledger is batch (nil when none)
// with the tasks in judged already answered. Whatever it admits, fold
// applies, so a store never acknowledges an op a later Get would truncate
// as a corrupt tail. Legacy observe ops are never admitted.
func admit(op Op, next int, batch, judged []int) error {
	if op.Kind != OpMerge && op.Kind != OpDone && op.Kind != OpPartial {
		return fmt.Errorf("%w: op kind %q cannot be appended", ErrCorrupt, op.Kind)
	}
	if op.Version < next {
		return fmt.Errorf("%w: op %q version %d, %d applied ops", errStale, op.Kind, op.Version, next)
	}
	if op.Version > next {
		return fmt.Errorf("%w: op %q version %d does not extend %d applied ops",
			ErrCorrupt, op.Kind, op.Version, next)
	}
	if op.Kind == OpDone {
		return nil
	}
	if err := checkJudgments(op); err != nil {
		return err
	}
	if op.Kind == OpMerge {
		return nil
	}
	if len(op.Batch) == 0 {
		return fmt.Errorf("%w: partial op has no batch", ErrCorrupt)
	}
	if len(batch) == 0 {
		batch = op.Batch
	}
	// Duplicates are rejected, not skipped: the session layer deduplicates
	// retries before persisting, so a judgment already in the ledger means
	// a divergent writer (or a log replayed onto a snapshot that folded it
	// during a crashed compaction — where truncating it loses nothing).
	for i, t := range op.Tasks {
		if !slices.Contains(batch, t) {
			return fmt.Errorf("%w: partial op judges task %d outside batch %v", ErrCorrupt, t, batch)
		}
		if slices.Contains(judged, t) || slices.Contains(op.Tasks[:i], t) {
			return fmt.Errorf("%w: partial op re-judges task %d", ErrCorrupt, t)
		}
	}
	// The completing judgment is journaled as the batch's OpMerge, never as
	// a partial: a ledger covering its whole batch marks a corrupt tail, not
	// a committable state.
	if len(judged)+len(op.Tasks) >= len(batch) {
		return fmt.Errorf("%w: partial ops would cover batch %v; a complete round must arrive as its merge op",
			ErrCorrupt, batch)
	}
	return nil
}

// checkJudgments checks the shape of an op's judgments: non-empty paired
// tasks and answers, no negative task, and worker attribution either absent
// or parallel with every worker named (sources likewise, and only alongside
// workers).
func checkJudgments(op Op) error {
	n := len(op.Tasks)
	if n == 0 || n != len(op.Answers) {
		return fmt.Errorf("%w: %s op has %d tasks, %d answers", ErrCorrupt, op.Kind, n, len(op.Answers))
	}
	if slices.ContainsFunc(op.Tasks, func(t int) bool { return t < 0 }) {
		return fmt.Errorf("%w: %s op has a negative task", ErrCorrupt, op.Kind)
	}
	if (len(op.Workers) != 0 && len(op.Workers) != n) || (len(op.Sources) != 0 && len(op.Sources) != len(op.Workers)) {
		return fmt.Errorf("%w: %s op has %d tasks, %d workers, %d sources",
			ErrCorrupt, op.Kind, n, len(op.Workers), len(op.Sources))
	}
	if slices.Contains(op.Workers, "") {
		return fmt.Errorf("%w: %s op has an unattributed judgment", ErrCorrupt, op.Kind)
	}
	return nil
}

// fold applies one logged op to the record. It returns ok=false when the
// op cannot extend the record — admit refuses it, or a legacy observe op
// is malformed or out of sequence — which readers treat as the start of a
// corrupt tail. Ops whose version is already folded are skipped silently.
func (r *Record) fold(op Op) (ok bool) {
	if op.Kind == OpObserve {
		return r.foldObserve(op)
	}
	switch err := admit(op, len(r.Ops), r.PendingBatch, r.PendingTasks); {
	case err == nil:
		r.apply(op)
	case errors.Is(err, errStale):
		r.touch(op.Time)
	default:
		return false
	}
	return true
}

// apply folds an admitted op into the record. A merge records the
// observations of the judgments its ledger had not yet recorded and then
// commits (and thereby clears) the ledger; its attribution lives on in
// Observations, so the folded op keeps only the answer set.
func (r *Record) apply(op Op) {
	switch op.Kind {
	case OpMerge:
		r.Observations = append(r.Observations, op.Observations(r.PendingTasks)...)
		m := op.clone()
		m.Workers, m.Sources = nil, nil
		r.Ops = append(r.Ops, m)
		// A merge produces a fresh posterior whose uncertainty is unknown
		// until the next select.
		r.Done = false
		r.PendingBatch, r.PendingTasks, r.PendingAnswers = nil, nil, nil
	case OpDone:
		r.Done = true
	case OpPartial:
		r.Observations = append(r.Observations, op.Observations(r.PendingTasks)...)
		if len(r.PendingBatch) == 0 {
			r.PendingBatch = append([]int(nil), op.Batch...)
		}
		r.PendingTasks = append(r.PendingTasks, op.Tasks...)
		r.PendingAnswers = append(r.PendingAnswers, op.Answers...)
	}
	r.touch(op.Time)
}

// foldObserve folds a legacy observe op read-only. Seq heals a compaction
// that crashed between snapshot and truncate: observations already folded
// into the snapshot are skipped, exactly as merge versions are.
func (r *Record) foldObserve(op Op) bool {
	if len(op.Workers) == 0 || checkJudgments(op) != nil {
		return false
	}
	switch {
	case op.Seq+len(op.Tasks) <= len(r.Observations):
		// Already folded into the snapshot by a compaction.
	case op.Seq == len(r.Observations) && op.Version == len(r.Ops):
		r.Observations = append(r.Observations, op.Observations(nil)...)
	default:
		return false
	}
	r.touch(op.Time)
	return true
}

// touch advances LastAccess to t when t is later.
func (r *Record) touch(t time.Time) {
	if t.After(r.LastAccess) {
		r.LastAccess = t
	}
}

// checkID vets an ID for use as (part of) a file name: non-empty, bounded,
// and drawn from a character set with no path separators or dots, so a
// hostile ID cannot traverse out of the data directory.
func checkID(id string) error {
	if id == "" || len(id) > 128 {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c == '-' || c == '_':
		default:
			return fmt.Errorf("%w: %q", ErrBadID, id)
		}
	}
	return nil
}
