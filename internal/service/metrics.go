package service

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"crowdfusion/internal/store"
)

// latencyBuckets are the shared fixed histogram bounds, in seconds:
// exponential-ish from 50µs (a cached select is well under the first
// bucket) to 5s (the slowest fsync or greedy sweep anyone should see).
// Fixed bounds are the point — every node exposes the same buckets, so
// fleet-wide latency is a straight sum of _bucket series.
var latencyBuckets = [...]float64{
	0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket Prometheus histogram: lock-free observes
// (one atomic add on the bucket, one on the sum), cumulative rendering at
// scrape time. counts[i] holds observations ≤ latencyBuckets[i]
// NON-cumulatively; counts[len] is the +Inf overflow. sumNanos accumulates
// in integer nanoseconds so the adds stay atomic.
type histogram struct {
	counts   [len(latencyBuckets) + 1]atomic.Int64
	sumNanos atomic.Int64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], s)
	// SearchFloat64s finds the first bound >= s, which is exactly the
	// le-bucket; i == len means +Inf.
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// write renders the histogram in Prometheus text exposition format:
// cumulative _bucket lines ending in le="+Inf", then _sum and _count.
func (h *histogram) write(w io.Writer, name, help string) error {
	var cum int64
	var b []byte
	b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		b = fmt.Appendf(b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	b = fmt.Appendf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	b = fmt.Appendf(b, "%s_sum %g\n", name, float64(h.sumNanos.Load())/1e9)
	b = fmt.Appendf(b, "%s_count %d\n", name, cum)
	_, err := w.Write(b)
	return err
}

// Metrics aggregates the service's operational counters. All fields are
// safe for concurrent update; the /metrics endpoint renders a snapshot in
// Prometheus text exposition format.
type Metrics struct {
	SessionsCreated   atomic.Int64
	SessionsEvicted   atomic.Int64 // TTL drops from a volatile store (state lost)
	SessionsUnloaded  atomic.Int64 // TTL flushes to a durable store (state kept)
	SessionsRecovered atomic.Int64 // lazy reloads from the store
	SessionsDeleted   atomic.Int64
	// Cluster traffic: sessions handed to a new owner on topology change
	// or misrouted touch, and requests bounced with code not_owner.
	SessionsRelinquished atomic.Int64
	NotOwnerRejects      atomic.Int64

	// Lease fencing. LeasesRenewed counts successful heartbeat renewals,
	// LeasesStolen the takeovers of an unexpired lease this node performed,
	// FencedWritesRefused every write or takeover attempt the lease fence
	// bounced (the deposed-owner signal: a nonzero value during an
	// ownership flap is the fence doing its job).
	LeasesRenewed       atomic.Int64
	LeasesStolen        atomic.Int64
	FencedWritesRefused atomic.Int64
	SelectsServed       atomic.Int64
	SelectCacheHits     atomic.Int64
	MergesApplied       atomic.Int64
	MergeReplays        atomic.Int64
	PartialAnswers      atomic.Int64 // partial judgment sets journaled (not yet committed)
	RequestsRejected    atomic.Int64 // backpressure 503s

	// Worker-model traffic. WorkerRefits counts worker-accuracy
	// re-estimations (one per commit on an em/dawid-skene session with
	// observations); WeightedMerges counts posterior conditionings that
	// used per-worker accuracy estimates instead of the scalar pc
	// (partial submissions recompute the provisional posterior, so a
	// batch answered one judgment at a time contributes one count per
	// recomputation, not one per batch).
	WorkerRefits   atomic.Int64
	WeightedMerges atomic.Int64

	// Event streaming. SubscribersLive is a gauge (subscribes minus
	// detaches); EventsDropped counts events a slow subscriber missed at
	// its drop point, SubscribersDropped the drop-and-mark detachments.
	SubscribersLive    atomic.Int64
	StreamsServed      atomic.Int64
	EventsPublished    atomic.Int64
	EventsDropped      atomic.Int64
	SubscribersDropped atomic.Int64

	// Store traffic, counted by the instrumented store wrapper.
	StorePuts    atomic.Int64
	StoreAppends atomic.Int64
	StoreDeletes atomic.Int64
	StoreErrors  atomic.Int64

	// Fixed-bucket histograms, aggregatable across the fleet. Select and
	// merge are observed at the handler (whole compute path including the
	// session mutex); store-append is observed inside the instrumented
	// store and is dominated by the fsync on durable stores; lease-renew
	// is one heartbeat renewal round-trip.
	SelectDuration      histogram
	MergeDuration       histogram
	StoreAppendDuration histogram
	LeaseRenewDuration  histogram
	// RefitDuration is one worker-accuracy re-estimation (EM or
	// Dawid–Skene over the session's full observation log), observed
	// inside the merge critical section — its tail is merge latency.
	RefitDuration histogram
}

// WritePrometheus renders the snapshot. sessionsLive, leasesHeld, and
// workersTracked are passed in because the gauges belong to the Manager,
// not the counter set.
func (m *Metrics) WritePrometheus(w io.Writer, sessionsLive, leasesHeld, workersTracked int) error {
	counter := func(name, help string, v int64) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) string {
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	out := gauge("crowdfusion_sessions_live", "Sessions currently resident in memory.", float64(sessionsLive)) +
		counter("crowdfusion_sessions_created_total", "Sessions ever created.", m.SessionsCreated.Load()) +
		counter("crowdfusion_sessions_evicted_total", "Sessions dropped by TTL from a volatile store (state lost).", m.SessionsEvicted.Load()) +
		counter("crowdfusion_sessions_unloaded_total", "Sessions flushed to a durable store by TTL (state kept).", m.SessionsUnloaded.Load()) +
		counter("crowdfusion_sessions_recovered_total", "Sessions lazily reloaded from the store after a restart or unload.", m.SessionsRecovered.Load()) +
		counter("crowdfusion_sessions_deleted_total", "Sessions deleted by clients.", m.SessionsDeleted.Load()) +
		counter("crowdfusion_sessions_relinquished_total", "Sessions flushed and handed to a new owner.", m.SessionsRelinquished.Load()) +
		counter("crowdfusion_not_owner_rejects_total", "Requests bounced with code not_owner.", m.NotOwnerRejects.Load()) +
		gauge("crowdfusion_leases_held", "Session write leases this node currently holds.", float64(leasesHeld)) +
		counter("crowdfusion_leases_renewed_total", "Successful lease heartbeat renewals.", m.LeasesRenewed.Load()) +
		counter("crowdfusion_leases_stolen_total", "Unexpired leases this node took over from a deposed owner.", m.LeasesStolen.Load()) +
		counter("crowdfusion_fenced_writes_refused_total", "Writes and takeover attempts refused by the lease fence.", m.FencedWritesRefused.Load()) +
		counter("crowdfusion_store_puts_total", "Session snapshots written to the store.", m.StorePuts.Load()) +
		counter("crowdfusion_store_appends_total", "Ops appended to session logs.", m.StoreAppends.Load()) +
		counter("crowdfusion_store_deletes_total", "Session records deleted from the store.", m.StoreDeletes.Load()) +
		counter("crowdfusion_store_errors_total", "Session store operations that failed.", m.StoreErrors.Load()) +
		counter("crowdfusion_selects_served_total", "Select batches served (including cache hits).", m.SelectsServed.Load()) +
		counter("crowdfusion_select_cache_hits_total", "Selects served from the posterior-version cache.", m.SelectCacheHits.Load()) +
		counter("crowdfusion_merges_applied_total", "Answer sets merged into posteriors.", m.MergesApplied.Load()) +
		counter("crowdfusion_merge_replays_total", "Idempotent replays of already-applied answer sets.", m.MergeReplays.Load()) +
		counter("crowdfusion_partial_answers_total", "Partial judgment sets journaled against pending batches.", m.PartialAnswers.Load()) +
		gauge("crowdfusion_workers_tracked", "Distinct workers observed across resident sessions.", float64(workersTracked)) +
		counter("crowdfusion_worker_refits_total", "Worker-accuracy re-estimations (EM/Dawid-Skene refits).", m.WorkerRefits.Load()) +
		counter("crowdfusion_weighted_merges_total", "Posterior conditionings using per-worker accuracy estimates.", m.WeightedMerges.Load()) +
		counter("crowdfusion_requests_rejected_total", "Requests rejected by backpressure.", m.RequestsRejected.Load()) +
		gauge("crowdfusion_subscribers_live", "Event-stream subscribers currently attached.", float64(m.SubscribersLive.Load())) +
		counter("crowdfusion_streams_served_total", "Event streams accepted.", m.StreamsServed.Load()) +
		counter("crowdfusion_events_published_total", "Session events published to feeds.", m.EventsPublished.Load()) +
		counter("crowdfusion_events_dropped_total", "Events lost to slow subscribers at their drop point.", m.EventsDropped.Load()) +
		counter("crowdfusion_subscribers_dropped_total", "Subscribers detached for falling behind (drop-and-mark).", m.SubscribersDropped.Load())
	if _, err := io.WriteString(w, out); err != nil {
		return err
	}
	for _, h := range []struct {
		name, help string
		h          *histogram
	}{
		{"crowdfusion_select_duration_seconds", "Select handling time (fixed buckets, fleet-aggregatable).", &m.SelectDuration},
		{"crowdfusion_merge_duration_seconds", "Answer-merge handling time (fixed buckets, fleet-aggregatable).", &m.MergeDuration},
		{"crowdfusion_store_append_duration_seconds", "Op-log append time including fsync on durable stores.", &m.StoreAppendDuration},
		{"crowdfusion_lease_renew_duration_seconds", "Lease heartbeat renewal time against the store.", &m.LeaseRenewDuration},
		{"crowdfusion_refit_duration_seconds", "Worker-accuracy refit time (EM/Dawid-Skene over the observation log).", &m.RefitDuration},
	} {
		if err := h.h.write(w, h.name, h.help); err != nil {
			return err
		}
	}
	return nil
}

// instrumentedStore decorates a SessionStore with the service's store-op
// counters, so the manager and sessions stay metrics-free.
type instrumentedStore struct {
	inner store.SessionStore
	m     *Metrics
}

func (s instrumentedStore) count(c *atomic.Int64, err error) error {
	c.Add(1)
	s.countErr(err)
	return err
}

// countErr classifies a store failure: a fenced write is the lease gate
// working, not a store failure; everything else lands in StoreErrors.
func (s instrumentedStore) countErr(err error) {
	switch {
	case err == nil:
	case errors.Is(err, store.ErrFenced):
		s.m.FencedWritesRefused.Add(1)
	default:
		s.m.StoreErrors.Add(1)
	}
}

func (s instrumentedStore) Durable() bool { return s.inner.Durable() }

func (s instrumentedStore) Put(rec *store.Record) error {
	return s.count(&s.m.StorePuts, s.inner.Put(rec))
}

func (s instrumentedStore) Append(id string, op store.Op) error {
	start := time.Now()
	err := s.inner.Append(id, op)
	s.m.StoreAppendDuration.observe(time.Since(start))
	return s.count(&s.m.StoreAppends, err)
}

func (s instrumentedStore) Get(id string) (*store.Record, error) {
	rec, err := s.inner.Get(id)
	// Get misses are routine (unknown IDs probe the store); only count
	// real failures.
	if err != nil && !errors.Is(err, store.ErrNotExist) && !errors.Is(err, store.ErrBadID) {
		s.m.StoreErrors.Add(1)
	}
	return rec, err
}

func (s instrumentedStore) Delete(id string) (bool, error) {
	ok, err := s.inner.Delete(id)
	if err == nil {
		// Only a delete that actually ran counts as store traffic; a failed
		// one would otherwise inflate the deletes counter while its error
		// vanished.
		s.m.StoreDeletes.Add(1)
	} else if !errors.Is(err, store.ErrBadID) {
		s.countErr(err)
	}
	return ok, err
}

func (s instrumentedStore) List() ([]string, error) {
	ids, err := s.inner.List()
	if err != nil {
		s.m.StoreErrors.Add(1)
	}
	return ids, err
}

func (s instrumentedStore) Close() error { return s.inner.Close() }

func (s instrumentedStore) AcquireLease(id, owner string, ttl time.Duration, now time.Time) (store.Lease, error) {
	l, err := s.inner.AcquireLease(id, owner, ttl, now)
	var held *store.LeaseHeldError
	if err != nil && !errors.As(err, &held) {
		// A live holder is the fence negotiating ownership, not a failure;
		// anything else (I/O, corruption) is.
		s.countErr(err)
	}
	return l, err
}

func (s instrumentedStore) StealLease(id, owner string, ttl time.Duration, now time.Time) (store.Lease, error) {
	l, err := s.inner.StealLease(id, owner, ttl, now)
	if err == nil {
		s.m.LeasesStolen.Add(1)
	} else {
		s.countErr(err)
	}
	return l, err
}

func (s instrumentedStore) RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (store.Lease, error) {
	start := time.Now()
	l, err := s.inner.RenewLease(id, owner, epoch, ttl, now)
	s.m.LeaseRenewDuration.observe(time.Since(start))
	if err == nil {
		s.m.LeasesRenewed.Add(1)
	} else {
		// ErrFenced (lease superseded) feeds FencedWritesRefused via
		// countErr; real store trouble feeds StoreErrors.
		s.countErr(err)
	}
	return l, err
}

func (s instrumentedStore) ReleaseLease(id, owner string, epoch uint64) error {
	err := s.inner.ReleaseLease(id, owner, epoch)
	// Losing the release race (superseded by a higher epoch) is routine
	// handoff traffic; count everything else.
	if err != nil && !errors.Is(err, store.ErrFenced) {
		s.m.StoreErrors.Add(1)
	}
	return err
}

func (s instrumentedStore) GetLease(id string) (*store.Lease, error) {
	l, err := s.inner.GetLease(id)
	if err != nil {
		s.m.StoreErrors.Add(1)
	}
	return l, err
}
