package core

import (
	"context"
	"errors"
	"time"

	"clsm/internal/batch"
	"clsm/internal/health"
	"clsm/internal/keys"
	"clsm/internal/memtable"
	"clsm/internal/obs"
	"clsm/internal/vlog"
	"clsm/internal/wal"
)

// ctxDone returns ctx's cancellation channel, tolerating a nil ctx (the
// non-Ctx entry points). A nil channel never fires in a select, so the
// ctx-free hot path pays nothing.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr mirrors ctxDone for point-in-time checks.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Put stores (key, value). It follows Algorithm 2's put: acquire the
// shared lock, draw a timestamp (registering it in the Active set), log,
// insert into the mutable memtable, release the timestamp, unlock.
func (db *DB) Put(key, value []byte) error {
	return db.write(nil, key, value, keys.KindValue)
}

// PutCtx is Put with cancellation: throttle admission waits, memtable/L0
// stalls, and the bounded degraded-mode stall all return ctx.Err() as soon
// as ctx is done instead of sleeping out their delay. Once the write is
// admitted it completes; cancellation never leaves a half-applied write.
func (db *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return db.write(ctx, key, value, keys.KindValue)
}

// Delete removes key by writing a deletion marker (the paper's ⊥).
func (db *DB) Delete(key []byte) error {
	return db.write(nil, key, nil, keys.KindDelete)
}

// DeleteCtx is Delete with cancellation (see PutCtx).
func (db *DB) DeleteCtx(ctx context.Context, key []byte) error {
	return db.write(ctx, key, nil, keys.KindDelete)
}

func (db *DB) write(ctx context.Context, key, value []byte, kind keys.Kind) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	// One unconditional defer keeps it open-coded (no closure alloc).
	start := time.Now()
	op := obs.OpPut
	if kind == keys.KindDelete {
		op = obs.OpDelete
	}
	defer func() { db.obs.Record(op, time.Since(start)) }()
	if err := db.admitWrite(ctx, len(key)+len(value)); err != nil {
		return err
	}
	if err := db.makeRoomForWrite(ctx); err != nil {
		return err
	}

	logicalBytes := len(key) + len(value)
	db.lock.LockShared()
	mt := db.mem.Load()
	logger := db.log.Load()

	ts, slot := db.oracle.GetTS()
	// Large values divert to the value log before the WAL record carrying
	// their pointer is appended: in sync mode the value bytes are made
	// durable first (WaitSync inside routeValue), so a durable pointer
	// always implies a durable value.
	kind, value, verr := db.routeValue(kind, key, ts, value, logger != nil)
	if verr != nil {
		db.oracle.Done(slot)
		db.lock.UnlockShared()
		return verr
	}
	if logger != nil {
		// Encode the one-entry batch straight into a pooled WAL buffer and
		// hand ownership to the logger: no defensive copy, no allocation.
		buf := wal.GetBuf()
		*buf = batch.AppendSingle((*buf)[:0], kind, ts, key, value)
		if err := logger.AppendOwned(buf); err != nil {
			db.oracle.Done(slot)
			db.lock.UnlockShared()
			return err
		}
	}
	mt.Add(key, ts, kind, value)
	db.oracle.Done(slot)
	db.lock.UnlockShared()

	if kind == keys.KindDelete {
		db.metrics.deletes.Add(1)
	} else {
		db.metrics.puts.Add(1)
	}
	db.metrics.writeBytes.Add(uint64(logicalBytes))
	db.maybeTriggerFlush(mt)
	return nil
}

// Write applies a batch atomically. A batch takes the shared lock like a
// put (the exclusive lock is only for the pointer swaps around a merge,
// §3.1) and draws one contiguous timestamp range with GetTSBatch. The
// range's first timestamp stays in the Active set until every entry is
// in the memtable, so every snapshot (getSnap waits out Active slots at
// or below its fence) falls either below the whole range or above it:
// a reader sees the batch whole or not at all.
//
// When value separation is enabled (Options.ValueThreshold), entries whose
// values the engine routes to the value log are rewritten in place as
// pointer entries: a successfully written batch is consumed and must be
// rebuilt, not resubmitted.
func (db *DB) Write(b *batch.Batch) error {
	return db.writeBatch(nil, b)
}

// WriteCtx is Write with cancellation (see PutCtx): the pre-admission
// waits honor ctx, and once the batch is admitted it applies atomically —
// cancellation never splits a batch.
func (db *DB) WriteCtx(ctx context.Context, b *batch.Batch) error {
	return db.writeBatch(ctx, b)
}

func (db *DB) writeBatch(ctx context.Context, b *batch.Batch) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	if b.Len() == 0 {
		return nil
	}
	start := time.Now()
	defer func() { db.obs.Record(obs.OpWrite, time.Since(start)) }()
	n := 0
	for _, e := range b.Entries() {
		n += len(e.Key) + len(e.Value)
	}
	if err := db.admitWrite(ctx, n); err != nil {
		return err
	}
	if err := db.makeRoomForWrite(ctx); err != nil {
		return err
	}

	db.lock.LockShared()
	mt := db.mem.Load()
	logger := db.log.Load()

	first, slot := db.oracle.GetTSBatch(uint64(b.Len()))
	b.SetTimestamps(first)
	// Divert the batch's large values to the value log (rewriting those
	// entries in place as pointer entries) with one group-committed sync
	// for the whole batch, before the WAL record is appended.
	if err := db.routeBatch(b, logger != nil); err != nil {
		db.oracle.Done(slot)
		db.lock.UnlockShared()
		return err
	}
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

	db.metrics.puts.Add(uint64(b.Len()))
	db.metrics.writeBytes.Add(uint64(n))
	db.maybeTriggerFlush(mt)
	return nil
}

// RMW atomically replaces the value of key with f(current). f receives the
// current value (nil, false if the key is absent or deleted) and returns
// the value to store. The implementation is Algorithm 3: optimistic,
// non-blocking, with conflicts detected on the skip list and retried.
func (db *DB) RMW(key []byte, f func(old []byte, exists bool) []byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { db.obs.Record(obs.OpRMW, time.Since(start)) }()
	// The new value's size is unknown until f runs; charge the key twice as
	// a stand-in for key+value (admission is a rate shaper, not a meter).
	if err := db.admitWrite(nil, 2*len(key)); err != nil {
		return err
	}
	if err := db.makeRoomForWrite(nil); err != nil {
		return err
	}

	db.lock.LockShared()
	defer db.lock.UnlockShared()
	mt := db.mem.Load()
	logger := db.log.Load()

	for attempt := 0; ; attempt++ {
		// Read step (Alg. 3 line 4): newest version across Pm, P'm, Pd.
		h, val, exists, err := db.read(key, keys.MaxTimestamp)
		if err != nil {
			if errors.Is(err, vlog.ErrRetired) && attempt < maxDerefRetries {
				// GC relocated the value between the component search and
				// the dereference; the relink is a newer version, so the
				// retry adopts it like any other interfering write.
				continue
			}
			return err
		}
		newVal := f(val, exists)

		ts, slot := db.oracle.GetTS()
		kind, stored, verr := db.routeValue(keys.KindValue, key, ts, newVal, logger != nil)
		if verr != nil {
			db.oracle.Done(slot)
			return verr
		}
		if mt.InsertRMWKind(key, ts, kind, stored, h.readTS()) {
			if logger != nil {
				buf := wal.GetBuf()
				*buf = batch.AppendSingle((*buf)[:0], kind, ts, key, stored)
				if err := logger.AppendOwned(buf); err != nil {
					db.oracle.Done(slot)
					return err
				}
			}
			db.oracle.Done(slot)
			db.metrics.rmws.Add(1)
			db.metrics.rmwRetries.Add(uint64(attempt))
			db.metrics.writeBytes.Add(uint64(len(key) + len(newVal)))
			db.maybeTriggerFlush(mt)
			return nil
		}
		// Conflict (Alg. 3 line 13): release the timestamp and restart.
		// A diverted value becomes unreferenced value-log garbage, swept
		// up by the next GC pass over its segment.
		db.oracle.Done(slot)
	}
}

// routeValue diverts one put's value into the value log when separation is
// enabled and the value is at or past the threshold, returning the pointer
// entry (KindValuePtr, encoded pointer) that replaces it. In sync mode with
// a WAL present it group-syncs the value bytes first, so the WAL record the
// caller appends next can never be durable ahead of the value it points at.
// Small values, deletes, and already-encoded pointers pass through
// untouched — the inline path pays only this comparison.
func (db *DB) routeValue(kind keys.Kind, key []byte, ts uint64, value []byte, logged bool) (keys.Kind, []byte, error) {
	t := db.opts.ValueThreshold
	if t <= 0 || kind != keys.KindValue || len(value) < t {
		return kind, value, nil
	}
	p, err := db.vlog.Append(key, ts, value)
	if err != nil {
		return kind, value, err
	}
	if db.opts.SyncWrites && logged {
		if err := db.vlog.WaitSync(); err != nil {
			return kind, value, err
		}
	}
	return keys.KindValuePtr, vlog.AppendPointer(nil, p), nil
}

// routeBatch is routeValue over a batch: every large value is appended to
// the value log and its entry rewritten in place as a pointer entry, then
// one group-committed WaitSync covers the whole batch (sync mode). Caller
// holds the shared lock and the batch's Active slot, with timestamps
// already assigned.
func (db *DB) routeBatch(b *batch.Batch, logged bool) error {
	t := db.opts.ValueThreshold
	if t <= 0 {
		return nil
	}
	routed := false
	ents := b.Entries()
	for i := range ents {
		e := &ents[i]
		if e.Kind != keys.KindValue || len(e.Value) < t {
			continue
		}
		p, err := db.vlog.Append(e.Key, e.TS, e.Value)
		if err != nil {
			return err
		}
		e.Kind = keys.KindValuePtr
		e.Value = vlog.AppendPointer(nil, p)
		routed = true
	}
	if routed && db.opts.SyncWrites && logged {
		return db.vlog.WaitSync()
	}
	return nil
}

// maybeTriggerFlush kicks the scheduler's planner when the mutable memtable
// crosses its soft limit (the planner turns the observation into a queued
// flush job).
func (db *DB) maybeTriggerFlush(mt *memtable.Table) {
	if mt.ApproximateSize() >= db.memBudget.Load() {
		db.sched.Kick()
	}
}

// makeRoomForWrite implements the paper's only put-side blocking: when the
// mutable memtable is full but the previous one is still being merged, or
// when L0 backs up, the writer waits outside the lock (never inside, which
// would deadlock the merge's exclusive acquisition). While the engine is
// Degraded the wait is bounded: a write may stall for at most
// DegradedStallTimeout before failing with ErrDegraded, because the merge
// it is waiting for may be retrying against a disk that never recovers.
// A non-nil ctx (the *Ctx entry points) bounds every wait — including the
// degraded stall — by ctx.Done() as well.
func (db *DB) makeRoomForWrite(ctx context.Context) error {
	slowed := false
	done := ctxDone(ctx)
	var degradedSince time.Time
	for {
		select {
		case <-db.closing:
			return ErrClosed
		case <-done:
			return ctx.Err()
		default:
		}
		if err := db.writeGate(); err != nil {
			return err
		}
		if db.health.State() == health.Degraded {
			if degradedSince.IsZero() {
				degradedSince = time.Now()
			} else if time.Since(degradedSince) > db.opts.DegradedStallTimeout {
				return wrapHealthErr(ErrDegraded, db.health.Err())
			}
		} else if !degradedSince.IsZero() {
			degradedSince = time.Time{}
		}

		// The binary L0 gate only runs under the "legacy" scheduler profile;
		// the default profiles replace it with the token-bucket admission
		// controller (admitWrite), which converts the same L0 backlog into a
		// smooth per-write delay instead of a 1ms step and a hard stop.
		if db.legacyGate {
			l0 := db.level0Count()
			switch {
			case !slowed && l0 >= db.opts.L0SlowdownTrigger && l0 < db.opts.L0StopTrigger:
				// Soft backpressure: one millisecond, once, as in LevelDB.
				start := db.stallBegin(obs.CauseL0Slowdown)
				time.Sleep(time.Millisecond)
				db.stallEnd(obs.CauseL0Slowdown, start)
				db.kickCompaction()
				slowed = true
				continue
			case l0 >= db.opts.L0StopTrigger:
				start := db.stallBegin(obs.CauseL0Stop)
				ch := *db.l0Relaxed.Load()
				db.kickCompaction()
				select {
				case <-ch:
				case <-db.closing:
					db.stallEnd(obs.CauseL0Stop, start)
					return ErrClosed
				case <-done:
					db.stallEnd(obs.CauseL0Stop, start)
					return ctx.Err()
				case <-time.After(10 * time.Millisecond):
				}
				db.stallEnd(obs.CauseL0Stop, start)
				continue
			}
		}

		mt := db.mem.Load()
		if mt == nil {
			return ErrClosed
		}
		if mt.ApproximateSize() < db.memBudget.Load() {
			return nil
		}
		// Mutable memtable is full.
		if db.imm.Load() == nil {
			// Rotation is pending; the planner will queue a flush job.
			// Writing into the (soft-limited) full memtable is allowed.
			db.sched.Kick()
			return nil
		}
		// Both memtables full: wait for the in-flight merge (the paper's
		// "blocks puts for short periods ... before batch I/Os").
		start := db.stallBegin(obs.CauseMemtableWait)
		ch := *db.immGone.Load()
		select {
		case <-ch:
		case <-db.closing:
			db.stallEnd(obs.CauseMemtableWait, start)
			return ErrClosed
		case <-done:
			db.stallEnd(obs.CauseMemtableWait, start)
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		db.stallEnd(obs.CauseMemtableWait, start)
	}
}

// stallBegin opens a stall episode: counts it, emits the begin event, and
// returns the episode start time for stallEnd.
func (db *DB) stallBegin(cause obs.StallCause) time.Time {
	db.obs.WriteStalls.Inc()
	db.obs.Event(obs.Event{Type: obs.EvStallBegin, Cause: cause})
	return time.Now()
}

// stallEnd closes a stall episode, folding its duration into the stall
// metric and emitting the end event.
func (db *DB) stallEnd(cause obs.StallCause, start time.Time) {
	d := time.Since(start)
	db.metrics.stallNanos.Add(int64(d))
	db.obs.Event(obs.Event{Type: obs.EvStallEnd, Cause: cause, Dur: d})
}

// level0Count reads the version set's atomic L0 mirror: no version
// reference is acquired, so the per-write backpressure probe stays off the
// version refcount cache line.
func (db *DB) level0Count() int {
	return db.versions.L0Count()
}

// kickCompaction asks the scheduler's planner to re-survey the tree now
// (the historical name survives: tests and the forced-flush path use it to
// expedite compaction after creating work).
func (db *DB) kickCompaction() {
	db.sched.Kick()
}
