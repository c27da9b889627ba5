package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// DefaultCompactEvery is how many logged ops a session accumulates before
// its log is folded back into the snapshot.
const DefaultCompactEvery = 64

// fileStripes is the number of per-ID mutex stripes. Operations on
// different sessions proceed in parallel; operations on one session (or two
// colliding in a stripe) serialize, which is what keeps
// snapshot-write/log-truncate sequences atomic with respect to each other.
const fileStripes = 16

// File is the durable SessionStore: per-session snapshot files plus
// append-only op logs under one data directory, pure stdlib.
//
// On-disk layout, one pair of files per session:
//
//	<dir>/<id>.json — the snapshot: a Record with compacted ops
//	<dir>/<id>.log  — ops appended since the snapshot, one JSON per line
//
// Durability contract: Append writes the op and fsyncs the log before
// returning, so an acknowledged merge survives SIGKILL. Snapshots are
// written to a temp file, fsynced, renamed into place, and the directory
// fsynced — a crash leaves either the old or the new snapshot, never a torn
// one. Compaction (folding the log into a fresh snapshot) runs
// automatically every CompactEvery appends; a crash between the snapshot
// rename and the log truncation is healed on load, because ops whose
// version is already in the snapshot fold as no-ops.
//
// A torn or corrupt log tail (the crash arrived mid-write) is detected on
// load: the session recovers to the last good record and the log is
// truncated back to the good prefix so later appends extend valid state.
//
// Shared data dirs: a clustered deployment points several processes at
// one directory, relying on session ownership for the one-writer-per-
// session discipline instead of Lock. The primary defense is the lease
// epoch gate (lease.go): each session's lease lives in <dir>/<id>.lease
// next to its snapshot and log, every Append/Put states the epoch it was
// issued under, and the check-then-write sequence runs under a
// per-session flock (<dir>/<id>.lock), so a deposed owner's write is
// refused with ErrFenced atomically with respect to the steal that
// deposed it — the window is closed, not shrunk. Behind that gate, a
// stat fence remains as defense-in-depth and bookkeeping resync: when
// the log's on-disk size differs from this process's cache (a peer wrote
// legitimately during a handoff, or leases are disabled), the state is
// re-read from disk before the version gate runs, so even an unleased
// divergent writer is refused with ErrCorrupt rather than silently
// forking the history.
type File struct {
	dir          string
	compactEvery int

	// Logf, when set, receives background-failure log lines (best-effort
	// compaction retries). Nil discards them. Set it before first use.
	Logf func(format string, args ...any)

	// lockFile pins the data dir against a second writer (see Lock).
	lockFile *os.File

	locks [fileStripes]sync.Mutex

	// state tracks, per session, how many ops sit in the log since the
	// last snapshot (the compaction trigger) and the next merge version
	// (the append-ordering check). An entry's presence also records that
	// the log tail has been verified (and repaired if torn) since this
	// process opened the store. The map is guarded by stateMu; the values
	// are only read or written under the session's stripe lock.
	stateMu sync.Mutex
	state   map[string]fileSessionState
}

// fileSessionState is the in-memory bookkeeping for one session's files.
// nextVer/pendBatch/pendDone are the record's admission inputs (see admit),
// kept so appends can be validated without re-reading the log.
type fileSessionState struct {
	logged    int   // ops in the log since the last snapshot
	nextVer   int   // merge version the next logged op must carry
	logSize   int64 // verified log bytes on disk as of the last read/write
	pendBatch []int // pending batch, nil when no ledger is open
	pendDone  []int // batch tasks already judged
}

// NewFile opens (creating if needed) a file store rooted at dir.
// compactEvery bounds the op log length before automatic compaction;
// 0 means DefaultCompactEvery.
func NewFile(dir string, compactEvery int) (*File, error) {
	if dir == "" {
		return nil, errors.New("store: file store needs a data directory")
	}
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	return &File{
		dir:          dir,
		compactEvery: compactEvery,
		state:        make(map[string]fileSessionState),
	}, nil
}

// Durable reports true: acknowledged writes survive restart.
func (s *File) Durable() bool { return true }

// Dir returns the store's data directory.
func (s *File) Dir() string { return s.dir }

func (s *File) lockFor(id string) *sync.Mutex {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &s.locks[h&(fileStripes-1)]
}

func (s *File) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *File) snapPath(id string) string  { return filepath.Join(s.dir, id+".json") }
func (s *File) logPath(id string) string   { return filepath.Join(s.dir, id+".log") }
func (s *File) leasePath(id string) string { return filepath.Join(s.dir, id+".lease") }
func (s *File) fencePath(id string) string { return filepath.Join(s.dir, id+".lock") }

// Put atomically replaces the session's snapshot and discards its log.
func (s *File) Put(rec *Record) error {
	if err := checkID(rec.ID); err != nil {
		return err
	}
	if err := rec.validate(); err != nil {
		return err
	}
	mu := s.lockFor(rec.ID)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(rec.ID)
	if err != nil {
		return err
	}
	defer unlock()
	cur, err := s.readLease(rec.ID)
	if err != nil {
		return err
	}
	if err := checkFence(rec.ID, rec.LeaseEpoch, cur); err != nil {
		return err
	}
	return s.putLocked(rec)
}

// putLocked writes the snapshot (temp + fsync + rename + dir fsync), then
// truncates the log. The caller holds the session's stripe lock.
func (s *File) putLocked(rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot %s: %w", rec.ID, err)
	}
	tmp := s.snapPath(rec.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing snapshot %s: %w", rec.ID, err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot %s: %w", rec.ID, err)
	}
	if err := os.Rename(tmp, s.snapPath(rec.ID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot %s: %w", rec.ID, err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The log's ops are folded into the snapshot now; a crash before this
	// remove is healed on load by version dedup.
	if err := os.Remove(s.logPath(rec.ID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: truncating log %s: %w", rec.ID, err)
	}
	s.setState(rec.ID, fileSessionState{
		logged:    0,
		nextVer:   len(rec.Ops),
		logSize:   0,
		pendBatch: append([]int(nil), rec.PendingBatch...),
		pendDone:  append([]int(nil), rec.PendingTasks...),
	})
	return nil
}

// logSizeOnDisk returns the session log's current byte size (0 when the
// log does not exist) — the cheap fence Append uses to notice another
// process's writes in a shared data dir.
func (s *File) logSizeOnDisk(id string) int64 {
	fi, err := os.Stat(s.logPath(id))
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (s *File) setState(id string, st fileSessionState) {
	s.stateMu.Lock()
	s.state[id] = st
	s.stateMu.Unlock()
}

func (s *File) getState(id string) (fileSessionState, bool) {
	s.stateMu.Lock()
	st, ok := s.state[id]
	s.stateMu.Unlock()
	return st, ok
}

// Append durably logs one op: write, fsync, then (every compactEvery ops)
// fold the log back into the snapshot.
func (s *File) Append(id string, op Op) error {
	if err := checkID(id); err != nil {
		return err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return err
	}
	defer unlock()
	cur, err := s.readLease(id)
	if err != nil {
		return err
	}
	if err := checkFence(id, op.Epoch, cur); err != nil {
		return err
	}

	st, seen := s.getState(id)
	if !seen {
		// First touch since the store opened: verify the record exists and
		// repair any torn log tail so this append extends valid state.
		if _, err := s.getLocked(id); err != nil {
			return err
		}
		st, _ = s.getState(id)
	} else if size := s.logSizeOnDisk(id); size != st.logSize {
		// The log changed under us: another PROCESS sharing the data dir
		// wrote since our bookkeeping was current — a peer that adopted
		// this session during a handoff and has since handed it back.
		// Resync from disk so the admission check below judges this op
		// against the real log, not a stale cache. With leases enabled the
		// epoch gate above has already refused any *divergent* writer;
		// this stat fence remains as defense-in-depth for unleased
		// deployments (where a divergent writer is refused with
		// ErrCorrupt) and as the bookkeeping refresh for legitimate
		// hand-backs.
		if _, err := s.getLocked(id); err != nil {
			return err
		}
		st, _ = s.getState(id)
	}

	// The shared admission rule (admit): strict version order — a stale
	// op is as dangerous as a gap, since retries are deduplicated in memory
	// before they reach the store — plus shape and ledger membership, so an
	// acknowledged op is exactly one the read path will fold. (The
	// skip-stale tolerance lives only in fold, where it heals the log a
	// crashed compaction leaves behind.)
	if err := admit(op, st.nextVer, st.pendBatch, st.pendDone); err != nil {
		return fmt.Errorf("store: appending to %s: %w", id, err)
	}

	line, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("store: encoding op for %s: %w", id, err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(s.logPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening log %s: %w", id, err)
	}
	if _, err := f.Write(line); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: appending op for %s: %w", id, err)
	}

	st.logged++
	st.logSize += int64(len(line))
	switch op.Kind {
	case OpMerge:
		st.nextVer++
		st.pendBatch, st.pendDone = nil, nil
	case OpPartial:
		if len(st.pendBatch) == 0 {
			st.pendBatch = append([]int(nil), op.Batch...)
		}
		st.pendDone = append(append([]int(nil), st.pendDone...), op.Tasks...)
	}
	s.setState(id, st)
	if st.logged >= s.compactEvery {
		// Best-effort: the op above is already durable, so a compaction
		// hiccup must NOT fail the append — the caller would retry an op
		// that is on disk and trip the version-order check. The logged
		// counter stays high, so the next append retries the compaction;
		// a persistent disk problem surfaces through that append's own
		// write instead.
		if err := s.compactLocked(id); err != nil {
			s.logf("store: compacting %s: %v (will retry)", id, err)
		}
	}
	return nil
}

// compactLocked folds the session's log back into its snapshot. The
// caller holds the session's stripe lock.
func (s *File) compactLocked(id string) error {
	rec, err := s.getLocked(id)
	if err != nil {
		return err
	}
	return s.putLocked(rec)
}

// Get loads the snapshot and folds in the logged ops. It takes the
// per-session fence lock: the read path repairs torn log tails by
// truncating, and that repair must not race a peer's in-flight append.
func (s *File) Get(id string) (*Record, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return nil, err
	}
	defer unlock()
	return s.getLocked(id)
}

// getLocked reads snapshot + log. A corrupt or torn log tail is truncated
// away so the on-disk state matches the recovered record. The caller holds
// the session's stripe lock.
func (s *File) getLocked(id string) (*Record, error) {
	data, err := os.ReadFile(s.snapPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, id)
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot %s: %w", id, err)
	}
	rec := &Record{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, id, err)
	}
	if rec.ID != id {
		return nil, fmt.Errorf("%w: snapshot %s names session %q", ErrCorrupt, id, rec.ID)
	}
	if err := rec.validate(); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", id, err)
	}

	logged := 0
	logData, err := os.ReadFile(s.logPath(id))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: reading log %s: %w", id, err)
	}
	good := 0 // byte offset of the end of the last good line
	for off := 0; off < len(logData); {
		nl := bytes.IndexByte(logData[off:], '\n')
		if nl < 0 {
			break // torn final line: the crash arrived mid-append
		}
		line := logData[off : off+nl]
		var op Op
		if json.Unmarshal(line, &op) != nil || !rec.fold(op) {
			break // corrupt tail: recover to the last good record
		}
		off += nl + 1
		good = off
		logged++
	}
	if good < len(logData) {
		// Truncate the bad tail so subsequent appends extend valid state
		// instead of hiding behind garbage.
		if err := os.Truncate(s.logPath(id), int64(good)); err != nil {
			return nil, fmt.Errorf("store: repairing log %s: %w", id, err)
		}
	}
	s.setState(id, fileSessionState{
		logged:    logged,
		nextVer:   len(rec.Ops),
		logSize:   int64(good),
		pendBatch: append([]int(nil), rec.PendingBatch...),
		pendDone:  append([]int(nil), rec.PendingTasks...),
	})
	return rec, nil
}

// Delete removes the session's snapshot and log.
func (s *File) Delete(id string) (bool, error) {
	if err := checkID(id); err != nil {
		return false, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return false, err
	}
	defer unlock()
	existed := true
	if err := os.Remove(s.snapPath(id)); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("store: deleting %s: %w", id, err)
		}
		existed = false
	}
	if err := os.Remove(s.logPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return existed, fmt.Errorf("store: deleting log %s: %w", id, err)
	}
	// The lease dies with the session: a deleted ID's epoch history is
	// meaningless once the record is gone (a recreated session starts a
	// fresh lease line). The fence lock file goes too, best-effort.
	if err := os.Remove(s.leasePath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return existed, fmt.Errorf("store: deleting lease %s: %w", id, err)
	}
	os.Remove(s.fencePath(id))
	s.stateMu.Lock()
	delete(s.state, id)
	s.stateMu.Unlock()
	if existed {
		return true, s.syncDir()
	}
	return false, nil
}

// List scans the data directory for snapshot files. os.ReadDir returns
// entries sorted by name, so the IDs come back in lexicographic order as
// the interface requires.
func (s *File) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if checkID(id) == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Close releases the data-dir lock (when Lock was called); per-session
// file descriptors are never held between calls.
func (s *File) Close() error { return s.unlock() }

// AcquireLease takes or refreshes the session's write lease. The lease
// record lives in <dir>/<id>.lease next to the session's snapshot and log,
// written atomically and fsynced, and the read-modify-write runs under the
// per-session fence lock so concurrent acquisitions from different
// processes serialize into a strict epoch order.
func (s *File) AcquireLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, false)
	})
}

// StealLease takes the lease unconditionally at a higher epoch.
func (s *File) StealLease(id, owner string, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return grantLease(cur, id, owner, ttl, now, true)
	})
}

// RenewLease extends the holder's lease, fencing stale holders.
func (s *File) RenewLease(id, owner string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error) {
	return s.lease(id, func(cur *Lease) (Lease, error) {
		return renewLease(cur, id, owner, epoch, ttl, now)
	})
}

// ReleaseLease clears the holder, keeping the epoch fence on disk.
func (s *File) ReleaseLease(id, owner string, epoch uint64) error {
	_, err := s.lease(id, func(cur *Lease) (Lease, error) {
		next, err := releaseLease(cur, id, owner, epoch)
		if err != nil {
			return Lease{}, err
		}
		if next == nil {
			return Lease{}, errLeaseUnchanged
		}
		return *next, nil
	})
	if errors.Is(err, errLeaseUnchanged) {
		return nil
	}
	return err
}

// GetLease returns the session's current lease, or nil when never leased.
func (s *File) GetLease(id string) (*Lease, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	return s.readLease(id)
}

// errLeaseUnchanged is an internal sentinel: the transition was a no-op and
// nothing should be written.
var errLeaseUnchanged = errors.New("store: lease unchanged")

// lease runs one lease transition under the stripe lock and the
// cross-process fence lock, persisting the result durably.
func (s *File) lease(id string, next func(cur *Lease) (Lease, error)) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	mu := s.lockFor(id)
	mu.Lock()
	defer mu.Unlock()
	unlock, err := s.fenceLock(id)
	if err != nil {
		return Lease{}, err
	}
	defer unlock()
	cur, err := s.readLease(id)
	if err != nil {
		return Lease{}, err
	}
	granted, err := next(cur)
	if err != nil {
		return Lease{}, err
	}
	if err := s.writeLease(granted); err != nil {
		return Lease{}, err
	}
	return granted, nil
}

// readLease loads the session's lease record; nil when never leased.
func (s *File) readLease(id string) (*Lease, error) {
	data, err := os.ReadFile(s.leasePath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading lease %s: %w", id, err)
	}
	l := &Lease{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("%w: lease %s: %v", ErrCorrupt, id, err)
	}
	return l, nil
}

// writeLease durably publishes a lease record: temp + fsync + rename +
// dir fsync, the same discipline as snapshots, so a crash leaves either
// the old or the new lease, never a torn one.
func (s *File) writeLease(l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("store: encoding lease %s: %w", l.ID, err)
	}
	tmp := s.leasePath(l.ID) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: writing lease %s: %w", l.ID, err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing lease %s: %w", l.ID, err)
	}
	if err := os.Rename(tmp, s.leasePath(l.ID)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing lease %s: %w", l.ID, err)
	}
	return s.syncDir()
}

// syncDir fsyncs the data directory, making renames and removals durable.
func (s *File) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}
