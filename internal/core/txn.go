package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"clsm/internal/batch"
	"clsm/internal/keys"
	"clsm/internal/obs"
	"clsm/internal/wal"
)

// ErrTxnConflict is returned by Commit when optimistic validation finds a
// version of a read- or write-set key written after the transaction's
// snapshot. The transaction is rolled back; the caller may retry it from
// scratch (re-reading through a fresh snapshot).
var ErrTxnConflict = errors.New("clsm: transaction conflict")

// Txn is a multi-key optimistic transaction: Algorithm 3's single-key OCC
// generalized over the snapshot oracle. Reads are served at a snapshot
// timestamp taken at Begin and recorded in a read set; writes are buffered.
// Commit runs under the shared lock: it validates that no key in the read
// or write set has a version in the interval (snapshot, commit) — across
// all three components Pm → P'm → Pd, which is why the disk lookup
// surfaces version timestamps — and then applies the write set exactly
// like an atomic batch: one contiguous timestamp range, one WAL record,
// exposed all-or-nothing. The serialization point is the fenced commit
// range: Fence(first-1) settles every lower timestamp before a final
// check of the memtable, so no write can slip into the interval unseen.
//
// A Txn is not safe for concurrent use by multiple goroutines. It pins the
// snapshot's versions until Commit or Rollback, so it must always be
// finished (the TTL sweeper does not cover transactions).
type Txn struct {
	db       *DB
	ts       uint64 // snapshot timestamp; reads pinned here
	commitTS uint64 // first timestamp of the commit batch; 0 until committed
	reads    map[string]struct{}
	writes   []txnWrite
	widx     map[string]int // user key -> index in writes (last-write-wins)
	done     bool
}

// txnWrite is one buffered write. Key and value are owned copies: the
// batch codec stores slices by reference, so buffering caller memory would
// let a post-Put mutation tear the commit record.
type txnWrite struct {
	kind  keys.Kind
	key   []byte
	value []byte
}

// BeginTxn starts a transaction (see Txn). It follows GetSnapshot's
// acquisition: shared lock, snapshot timestamp below every active write,
// registered with the oracle so merges cannot reclaim the versions it
// reads.
func (db *DB) BeginTxn() (*Txn, error) {
	return db.BeginTxnCtx(nil)
}

// BeginTxnCtx is BeginTxn with a context, checked once at entry (begin
// never blocks beyond the shared lock).
func (db *DB) BeginTxnCtx(ctx context.Context) (*Txn, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	db.lock.LockShared()
	ts := db.oracle.SnapshotTS()
	db.oracle.InstallSnapshot(ts)
	db.lock.UnlockShared()
	return &Txn{
		db:    db,
		ts:    ts,
		reads: make(map[string]struct{}),
		widx:  make(map[string]int),
	}, nil
}

// errTxnFinished wraps ErrClosed so finished-handle misuse matches the
// same sentinel as closed-store misuse.
func errTxnFinished() error {
	return fmt.Errorf("transaction already finished: %w", ErrClosed)
}

// SnapshotTS exposes the transaction's snapshot timestamp (tests, the
// serializability checker).
func (t *Txn) SnapshotTS() uint64 { return t.ts }

// CommitTS returns the first timestamp of the committed write batch (the
// batch occupies a contiguous range starting there), or 0 if the
// transaction has not committed, was read-only, or conflicted.
func (t *Txn) CommitTS() uint64 { return t.commitTS }

// Pending returns the number of buffered writes.
func (t *Txn) Pending() int { return len(t.writes) }

// Get reads key at the transaction's snapshot, seeing the transaction's
// own buffered writes first (read-your-writes). External reads are added
// to the read set and will be validated at commit.
func (t *Txn) Get(key []byte) (value []byte, ok bool, err error) {
	if t.done {
		return nil, false, errTxnFinished()
	}
	if i, hit := t.widx[string(key)]; hit {
		w := &t.writes[i]
		if w.kind == keys.KindDelete {
			return nil, false, nil
		}
		return w.value, true, nil
	}
	// Check-before-insert keeps repeat reads of the same key free of the
	// map-key allocation (the alloc gate pins this path at <=1 alloc/op).
	if _, tracked := t.reads[string(key)]; !tracked {
		t.reads[string(key)] = struct{}{}
	}
	return t.db.GetAt(key, t.ts)
}

// Has reports whether key is visible to the transaction (see Get).
func (t *Txn) Has(key []byte) (bool, error) {
	_, ok, err := t.Get(key)
	return ok, err
}

// Put buffers (key, value); nothing is visible outside the transaction
// until Commit. Key and value are copied.
func (t *Txn) Put(key, value []byte) error {
	return t.buffer(keys.KindValue, key, value)
}

// Delete buffers a deletion marker for key (see Put).
func (t *Txn) Delete(key []byte) error {
	return t.buffer(keys.KindDelete, key, nil)
}

func (t *Txn) buffer(kind keys.Kind, key, value []byte) error {
	if t.done {
		return errTxnFinished()
	}
	k := append([]byte(nil), key...)
	var v []byte
	if kind == keys.KindValue {
		v = append([]byte(nil), value...)
	}
	if i, hit := t.widx[string(key)]; hit {
		t.writes[i] = txnWrite{kind: kind, key: k, value: v}
		return nil
	}
	t.widx[string(k)] = len(t.writes)
	t.writes = append(t.writes, txnWrite{kind: kind, key: k, value: v})
	return nil
}

// Rollback discards the transaction and releases its snapshot. It is a
// no-op on a finished transaction, so `defer txn.Rollback()` is always
// safe.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	t.db.oracle.ReleaseSnapshot(t.ts)
}

// Commit validates and applies the transaction. On conflict it returns a
// wrapped ErrTxnConflict naming the offending key; the transaction is
// finished either way (retry by beginning a new one). A read-only
// transaction commits trivially: all its reads happened atomically at the
// snapshot timestamp, which is its serialization point.
func (t *Txn) Commit() error {
	return t.CommitCtx(nil)
}

// CommitCtx is Commit with cancellation for the pre-admission waits (see
// PutCtx). Once validation starts the commit runs to completion;
// cancellation never splits a committed batch.
func (t *Txn) CommitCtx(ctx context.Context) error {
	if t.done {
		return errTxnFinished()
	}
	t.done = true
	db := t.db
	defer db.oracle.ReleaseSnapshot(t.ts)

	if db.closed.Load() {
		return ErrClosed
	}
	if len(t.writes) == 0 {
		db.metrics.txns.Add(1)
		return nil
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { db.obs.Record(obs.OpWrite, time.Since(start)) }()
	n := 0
	for i := range t.writes {
		n += len(t.writes[i].key) + len(t.writes[i].value)
	}
	if err := db.admitWrite(ctx, n); err != nil {
		return err
	}
	if err := db.makeRoomForWrite(ctx); err != nil {
		return err
	}

	// Build the commit batch outside the lock; entries reference the
	// transaction's owned copies.
	var b batch.Batch
	for i := range t.writes {
		w := &t.writes[i]
		if w.kind == keys.KindDelete {
			b.Delete(w.key)
		} else {
			b.Put(w.key, w.value)
		}
	}

	// Commit runs under the shared lock in two phases. Holding the lock
	// pins Pm and P'm: no rotation can happen, so every write that lands
	// during the commit lands in Pm.
	db.lock.LockShared()
	mt := db.mem.Load()
	logger := db.log.Load()

	// Phase 1: no read- or write-set key may have a version newer than
	// the snapshot in any component: one lookup per key, Pm → P'm → Pd.
	// No timestamp is held, so the walk's disk reads stall no snapshot
	// and no other commit.
	v := db.pin()
	key, vts, err := t.firstNewer(func(k []byte) (uint64, error) {
		h, err := v.lookup(k, keys.MaxTimestamp)
		return h.ts, err
	})
	v.release()
	if err != nil || key != "" {
		db.lock.UnlockShared()
		if err != nil {
			return err
		}
		return db.txnConflict(t, key, vts)
	}

	// Phase 2: draw the commit range, then fence just below it. After
	// Fence(first-1) every write with a lower timestamp is in Pm or has
	// rolled back to a timestamp above the range, so the interval
	// (snapshot, first) is final. Any version phase 1 missed landed in
	// the pinned Pm, which makes a Pm-only probe at first-1 exact. The
	// range's Active slot keeps every snapshot below the commit until
	// Done.
	first, slot := db.oracle.GetTSBatch(uint64(b.Len()))
	db.oracle.Fence(first - 1)
	key, vts, _ = t.firstNewer(func(k []byte) (uint64, error) { // a Pm probe cannot fail
		_, vts, _, _ := mt.GetKind(k, first-1)
		return vts, nil
	})
	if key != "" {
		db.oracle.Done(slot)
		db.lock.UnlockShared()
		return db.txnConflict(t, key, vts)
	}

	// Apply: identical to the atomic-batch path — contiguous timestamp
	// range, one WAL record (the crash harness checks its atomicity),
	// memtable insertion, then Done releases the range to snapshots.
	b.SetTimestamps(first)
	if logger != nil {
		buf := wal.GetBuf()
		*buf = b.Encode((*buf)[:0])
		if err := logger.AppendOwned(buf); err != nil {
			db.oracle.Done(slot)
			db.lock.UnlockShared()
			return err
		}
	}
	for _, e := range b.Entries() {
		mt.Add(e.Key, e.TS, e.Kind, e.Value)
	}
	db.oracle.Done(slot)
	db.lock.UnlockShared()

	t.commitTS = first
	db.metrics.txns.Add(1)
	db.metrics.puts.Add(uint64(b.Len()))
	db.metrics.writeBytes.Add(uint64(n))
	db.maybeTriggerFlush(mt)
	return nil
}

// txnConflict counts a validation failure and returns the wrapped
// ErrTxnConflict naming the offending key.
func (db *DB) txnConflict(t *Txn, key string, vts uint64) error {
	db.metrics.txnConflicts.Add(1)
	return fmt.Errorf("key %q has version %d newer than snapshot %d: %w",
		key, vts, t.ts, ErrTxnConflict)
}

// firstNewer returns the first key in the transaction's read or write set
// whose version, as reported by probe, is newer than the snapshot ("" if
// none). probe returns a version timestamp, 0 for an absent key. A key
// that is absent everywhere validates trivially: tombstones are only
// elided by compaction when no older version remains, so "absent" cannot
// mask a version written inside the interval.
func (t *Txn) firstNewer(probe func(key []byte) (uint64, error)) (key string, vts uint64, err error) {
	for k := range t.reads {
		if vts, err := probe([]byte(k)); err != nil || vts > t.ts {
			return k, vts, err
		}
	}
	for i := range t.writes {
		k := t.writes[i].key
		if vts, err := probe(k); err != nil || vts > t.ts {
			return string(k), vts, err
		}
	}
	return "", 0, nil
}

// Txn runs fn inside a transaction: commit if fn returns nil, roll back
// (returning fn's error) otherwise. Conflicts surface as a wrapped
// ErrTxnConflict; retry loops belong to the caller, whose fn must be safe
// to re-run.
func (db *DB) Txn(fn func(*Txn) error) error {
	return db.TxnCtx(nil, fn)
}

// TxnCtx is Txn with cancellation (see CommitCtx).
func (db *DB) TxnCtx(ctx context.Context, fn func(*Txn) error) error {
	t, err := db.BeginTxnCtx(ctx)
	if err != nil {
		return err
	}
	if err := fn(t); err != nil {
		t.Rollback()
		return err
	}
	return t.CommitCtx(ctx)
}

// ReadCheck is one read-set assertion of a stateless remote transaction
// (the wire protocol's TxnWrite): the client read Key and observed Value
// (or absence, Exists=false) and asks the server to commit only if that
// observation still holds.
type ReadCheck struct {
	Key    []byte
	Value  []byte
	Exists bool
}

// TxnWriteCtx is the server-side half of a single-round-trip remote
// transaction: begin a transaction, re-read every check key and compare
// against the client's observation (value-based validation — the remote
// protocol is stateless, so the client cannot hold a snapshot timestamp
// across round trips), then commit b's entries through the normal
// OCC path. A failed check or a commit-time conflict returns a wrapped
// ErrTxnConflict; the caller should re-read and retry, not blindly resend.
func (db *DB) TxnWriteCtx(ctx context.Context, checks []ReadCheck, b *batch.Batch) error {
	t, err := db.BeginTxnCtx(ctx)
	if err != nil {
		return err
	}
	for i := range checks {
		c := &checks[i]
		v, ok, err := t.Get(c.Key)
		if err != nil {
			t.Rollback()
			return err
		}
		if ok != c.Exists || (ok && !bytes.Equal(v, c.Value)) {
			t.Rollback()
			db.metrics.txnConflicts.Add(1)
			return fmt.Errorf("key %q changed since the client read it: %w",
				c.Key, ErrTxnConflict)
		}
	}
	if b != nil {
		for _, e := range b.Entries() {
			if e.Kind == keys.KindDelete {
				t.Delete(e.Key)
			} else {
				t.Put(e.Key, e.Value)
			}
		}
	}
	return t.CommitCtx(ctx)
}
