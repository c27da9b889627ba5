package store

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Memory is the volatile SessionStore: records live in a map and vanish
// with the process. It exists so the service always runs behind the same
// store interface — and so the conformance suite can hold both
// implementations to one contract.
//
// The records it holds are never reloaded in practice (volatile eviction
// deletes them first and a restart empties the map); keeping them anyway
// is a deliberate trade-off — one persistence code path, identically
// exercised whichever store is configured — paid for with a record clone
// per create and an op clone per merge, both small next to the posterior
// conditioning a merge already performs.
type Memory struct {
	mu     sync.RWMutex
	recs   map[string]*Record
	leases map[string]*Lease
}

// NewMemory builds an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{recs: make(map[string]*Record), leases: make(map[string]*Lease)}
}

// Durable reports false: a restart loses everything.
func (s *Memory) Durable() bool { return false }

// Put stores a deep copy of the record, replacing any previous state.
func (s *Memory) Put(rec *Record) error {
	if err := checkID(rec.ID); err != nil {
		return err
	}
	if err := rec.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkFence(rec.ID, rec.LeaseEpoch, s.leases[rec.ID]); err != nil {
		return err
	}
	s.recs[rec.ID] = rec.Clone()
	return nil
}

// Append folds one op into the stored record. Ops are folded eagerly —
// there is no separate log to compact in memory. The op passes the same
// admission check as the file store's (admit): among other things it must
// extend the record in strict version order, since a stale version means a
// divergent second writer, not a retry (retries are deduplicated in memory
// before they reach the store).
func (s *Memory) Append(id string, op Op) error {
	if err := checkID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, id)
	}
	if err := checkFence(id, op.Epoch, s.leases[id]); err != nil {
		return err
	}
	if err := admit(op, len(rec.Ops), rec.PendingBatch, rec.PendingTasks); err != nil {
		return fmt.Errorf("store: appending to %s: %w", id, err)
	}
	rec.apply(op)
	return nil
}

// Get returns a deep copy of the record.
func (s *Memory) Get(id string) (*Record, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, id)
	}
	return rec.Clone(), nil
}

// Delete removes the record.
func (s *Memory) Delete(id string) (bool, error) {
	if err := checkID(id); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.recs[id]
	delete(s.recs, id)
	delete(s.leases, id)
	return ok, nil
}

// List returns every stored ID in lexicographic order.
func (s *Memory) List() ([]string, error) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.recs))
	for id := range s.recs {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids, nil
}

// Close is a no-op.
func (s *Memory) Close() error { return nil }

// AcquireLease takes or refreshes the session's write lease.
func (s *Memory) AcquireLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, false)
	})
}

// StealLease takes the lease unconditionally at a higher epoch.
func (s *Memory) StealLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, true)
	})
}

// RenewLease extends the holder's lease, fencing stale holders.
func (s *Memory) RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return renewLease(cur, id, owner, epoch, ttl, now)
	})
}

// ReleaseLease clears the holder, keeping the epoch fence.
func (s *Memory) ReleaseLease(id, owner string, epoch uint64) error {
	if err := checkID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := releaseLease(s.leases[id], id, owner, epoch)
	if err != nil {
		return err
	}
	if next != nil {
		s.leases[id] = next
	}
	return nil
}

// GetLease returns the current lease, or nil when never leased.
func (s *Memory) GetLease(id string) (*Lease, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.leases[id]
	if !ok {
		return nil, nil
	}
	c := *cur
	return &c, nil
}

// lease runs one lease transition under the store lock.
func (s *Memory) lease(id string, next func(cur *Lease) (Lease, error)) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	granted, err := next(s.leases[id])
	if err != nil {
		return Lease{}, err
	}
	s.leases[id] = &granted
	return granted, nil
}
