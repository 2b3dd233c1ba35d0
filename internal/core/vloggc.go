package core

import (
	"context"
	"time"

	"clsm/internal/batch"
	"clsm/internal/keys"
	"clsm/internal/obs"
	"clsm/internal/version"
	"clsm/internal/vlog"
	"clsm/internal/wal"
)

// Value-log garbage collection (docs/VALUELOG.md): live-ratio-driven
// segment rewrites. Compactions account garbage bytes per segment as they
// drop pointer entries; once a sealed segment's garbage fraction crosses
// Options.ValueLogGCRatio it becomes a rewrite candidate. The rewrite scans
// the segment, re-appends every still-live value to the head of the log,
// relinks the keys to the new pointers through the RMW conflict check, and
// — only after the relinked pointers are flushed into the disk component —
// logs the segment's retirement in the manifest. Physical removal is
// deferred further until no snapshot old enough to resolve the old pointers
// remains (vlog.ReapRetired).

// originVlogGC is the health origin of value-log GC work.
const originVlogGC = "vlog-gc"

// vlogGCPending reports whether a GC pass has work: a rewrite candidate or
// retired segments awaiting removal. Called by the planner every pass, so
// it must stay allocation-free.
func (db *DB) vlogGCPending() bool {
	if db.vlog.RetiredPending() > 0 {
		return true
	}
	_, ok := db.versions.VlogGCCandidate(db.opts.ValueLogGCRatio, db.vlogGCSkip)
	return ok
}

// runVlogGCJob is the scheduler job body: one candidate rewrite (or, with
// no candidate, just a reap pass) through the health machinery.
func (db *DB) runVlogGCJob() {
	if !db.bgRunnable() {
		return
	}
	db.vlogGCMu.Lock()
	_, err := db.vlogGCOnce()
	db.vlogGCMu.Unlock()
	db.settleBG(originVlogGC, err, db.vlogBoff)
}

// CompactValueLog synchronously garbage-collects the value log: every
// segment whose garbage fraction is at or past Options.ValueLogGCRatio is
// rewritten (live values relinked to the log head) and retired, and
// reclaimable retired segments are removed. It returns when no candidate
// remains or ctx is done. Safe to call concurrently with writes; rewrites
// are serialized against the background GC job.
func (db *DB) CompactValueLog(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.writeGate(); err != nil {
		return err
	}
	db.vlogGCMu.Lock()
	defer db.vlogGCMu.Unlock()
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		select {
		case <-db.closing:
			return ErrClosed
		default:
		}
		worked, err := db.vlogGCOnce()
		if err != nil {
			db.reportForeground(originVlogGC, err)
			return err
		}
		if !worked {
			return nil
		}
	}
}

// vlogGCOnce performs one GC unit: reap whatever retired segments have
// become reclaimable, then rewrite and retire at most one candidate
// segment. Returns worked=false when no candidate remained. Caller holds
// vlogGCMu.
func (db *DB) vlogGCOnce() (worked bool, err error) {
	db.vlog.ReapRetired(db.oracle.MinSnapshot())
	num, ok := db.versions.VlogGCCandidate(db.opts.ValueLogGCRatio, db.vlogGCSkip)
	if !ok {
		return false, nil
	}
	var size uint64
	for _, m := range db.versions.VlogSegments() {
		if m.Num == num {
			size = m.Size
			break
		}
	}
	if err := db.rewriteVlogSegment(num, size); err != nil {
		return false, err
	}
	return true, nil
}

// rewriteVlogSegment relocates segment num's live values and retires it.
func (db *DB) rewriteVlogSegment(num, size uint64) error {
	start := time.Now()
	relinked := 0
	err := db.vlog.ScanSegment(num, func(key []byte, ts uint64, ptr vlog.Pointer, value []byte) error {
		select {
		case <-db.closing:
			return ErrClosed
		default:
		}
		return db.relinkValue(key, ts, ptr, value, &relinked)
	})
	if err != nil {
		return err
	}
	if relinked > 0 {
		// The relinked values must be durable before their pointers can
		// become the only reachable copy, and the pointers must be in the
		// disk component before retirement: any version pinned after the
		// retirement edit then resolves through the new pointers, which is
		// what lets checkpoints link a consistent segment set.
		if err := db.vlog.WaitSync(); err != nil {
			return err
		}
		if err := db.forceFlush(); err != nil {
			return err
		}
	}
	// An entry judged dead during the scan may be superseded only by a
	// version that is not yet durable: an in-flight put appends its value
	// to the value log and enqueues its WAL record before inserting into
	// the memtable, and acks only after the syncs. Once the retirement
	// edit lands, recovery discards pointer records into this segment —
	// so everything the scan observed as newer must be fully on disk
	// first (value bytes AND WAL record: recovery drops a record whose
	// value bytes are unreadable), or a crash could regress an acked
	// write. These two barriers cover exactly the observed set: visible
	// in the memtable ⟹ value appended and record enqueued.
	if err := db.vlog.WaitSync(); err != nil {
		return err
	}
	if logger := db.log.Load(); logger != nil {
		if err := logger.Flush(); err != nil {
			return err
		}
	}
	var e version.Edit
	e.DeleteVlogSegment(num)
	// Snapshots installed from here on see the relinked pointers; earlier
	// ones may still resolve old pointers into the segment, so physical
	// removal waits until the oldest live snapshot has passed retireTS.
	retireTS := db.oracle.Now()
	if err := db.versions.LogAndApply(&e); err != nil {
		return err
	}
	db.vlog.Retire(num, retireTS, size)
	db.vlog.ReapRetired(db.oracle.MinSnapshot())
	db.obs.VlogGCRewrites.Add(uint64(relinked))
	db.metrics.vlogGCRuns.Add(1)
	db.obs.Event(obs.Event{Type: obs.EvVlogGC, Bytes: size, Dur: time.Since(start)})
	return nil
}

// relinkValue re-appends one scanned entry's value to the log head and
// points its key at the copy, if and only if the entry is still the key's
// newest version.
//
// The relink runs under the shared lock like any write, with the fence
// transaction commits use. A put holds its timestamp across its whole
// sequence (timestamp assignment → value routing → WAL enqueue →
// memtable insert), so there is a window where a LOWER-timestamped put
// has its timestamp but is not yet visible in the memtable. A liveness
// check in that window would pass, the relink's fresh (higher)
// timestamp would win, and the old value would be resurrected over the
// concurrent put — the memtable conflict check cannot see a version that
// has not been inserted yet. So the relink draws its timestamp first and
// fences just below it: after Fence(newTS-1) every lower-timestamped
// write is in the memtable or has rolled back above newTS; a
// higher-timestamped one fails InsertRMWKind's conflict check if it
// lands first, and is simply newer than the relink if it lands after.
// The timestamp comes from GetTSBackground, so a snapshot taken while
// the relink runs waits for it instead of stepping below it and losing
// writes the application completed meanwhile.
func (db *DB) relinkValue(key []byte, ts uint64, ptr vlog.Pointer, value []byte, relinked *int) error {
	db.lock.LockShared()
	defer db.lock.UnlockShared()
	mt := db.mem.Load()
	if mt == nil {
		return ErrClosed
	}
	newTS, slot := db.oracle.GetTSBackground()
	defer db.oracle.Done(slot)
	db.oracle.Fence(newTS - 1)
	// Live means: the newest version is a pointer entry naming exactly
	// this segment and offset. Timestamp equality alone is not enough —
	// a GC crash after relinking leaves two pointer versions to the same
	// value, and only the one actually stored must be chased.
	v := db.pin()
	h, err := v.lookup(key, keys.MaxTimestamp)
	live := err == nil && h.src != absent && h.kind == keys.KindValuePtr && h.ts == ts
	if live {
		p, ok := vlog.DecodePointer(h.raw)
		live = ok && p.Seg == ptr.Seg && p.Off == ptr.Off
	}
	v.release()
	if err != nil || !live {
		return err
	}
	np, err := db.vlog.Append(key, newTS, value)
	if err != nil {
		return err
	}
	nb := vlog.AppendPointer(nil, np)
	if !mt.InsertRMWKind(key, newTS, keys.KindValuePtr, nb, h.readTS()) {
		return nil // concurrent writer superseded the value: nothing to relink
	}
	if logger := db.log.Load(); logger != nil {
		buf := wal.GetBuf()
		*buf = batch.AppendSingle((*buf)[:0], keys.KindValuePtr, newTS, key, nb)
		if err := logger.AppendOwned(buf); err != nil {
			return err
		}
	}
	*relinked++
	return nil
}
