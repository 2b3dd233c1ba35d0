// Package oracle implements the timestamp management of cLSM's snapshot
// algorithm (Algorithm 2 of the paper): a global time counter, the Active
// set of acquired-but-possibly-unwritten timestamps, the snapTime fence,
// and the list of installed snapshots consulted by merges.
package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"clsm/internal/syncutil"
)

// activeSlots bounds the number of concurrently in-flight put timestamps.
// The Active set is a fixed array of atomic slots: Add claims an empty slot
// with a CAS, Remove clears it, FindMin scans. All operations are
// non-blocking; FindMin is O(activeSlots), which only the (rare) getSnap
// and merge paths pay. 256 slots comfortably exceed any realistic writer
// count (the paper evaluates up to 16 hardware threads).
const activeSlots = 256

// ActiveSet tracks timestamps handed to writers that may not yet have been
// inserted into the memtable.
type ActiveSet struct {
	slots [activeSlots]atomic.Uint64
	hint  atomic.Uint32
	// count over-approximates the number of occupied slots: incremented
	// before a slot is claimed, decremented after it is released. It lets
	// FindMin return immediately in the common no-writer-in-flight case
	// without weakening the visibility argument — a writer whose Add
	// precedes a FindMin in the seq-cst order has already bumped count.
	count atomic.Int64
}

// Add claims a slot for ts and returns its index for O(1) removal.
func (s *ActiveSet) Add(ts uint64) int {
	s.count.Add(1)
	start := int(s.hint.Add(1))
	for i := 0; ; i++ {
		idx := (start + i) % activeSlots
		if s.slots[idx].Load() == 0 && s.slots[idx].CompareAndSwap(0, ts) {
			return idx
		}
		if i >= activeSlots {
			// All slots busy: more than activeSlots concurrent writers.
			// Yield and rescan; progress is guaranteed because every slot
			// holder is mid-put and will release promptly.
			runtime.Gosched()
			i = 0
		}
	}
}

// Remove releases the slot previously returned by Add.
func (s *ActiveSet) Remove(slot int) {
	s.slots[slot].Store(0)
	s.count.Add(-1)
}

// waitFlag marks an Active slot that getSnap waits out instead of
// stepping below (GetTSBackground). Timestamps never reach bit 63.
const waitFlag = 1 << 63

// FindMin returns the smallest active timestamp, or 0 if none is active.
func (s *ActiveSet) FindMin() uint64 { return s.findMin(false) }

// findMin is FindMin, ignoring waitFlag slots when skipWaited is set.
func (s *ActiveSet) findMin(skipWaited bool) uint64 {
	if s.count.Load() == 0 {
		return 0
	}
	var min uint64
	for i := range s.slots {
		v := s.slots[i].Load()
		if v&waitFlag != 0 {
			if skipWaited {
				continue
			}
			v &^= waitFlag
		}
		if v != 0 && (min == 0 || v < min) {
			min = v
		}
	}
	return min
}

// Oracle issues put timestamps and snapshot times with the serializability
// guarantee of Algorithm 2: a snapshot time never falls at or above a
// timestamp that is still active, and a put whose timestamp is overtaken by
// snapTime rolls it back and draws a fresh one.
type Oracle struct {
	timeCounter atomic.Uint64
	snapTime    atomic.Uint64
	active      ActiveSet

	mu        sync.Mutex // guards snapshots (getSnap/merge path only)
	snapshots map[uint64]int
}

// New returns an oracle starting at timestamp 1 (0 is reserved to mean
// "empty" in the Active set).
func New() *Oracle {
	return &Oracle{snapshots: make(map[uint64]int)}
}

// Advance fast-forwards the time counter to at least ts. Used by recovery
// to resume above the largest logged timestamp.
func (o *Oracle) Advance(ts uint64) {
	for {
		cur := o.timeCounter.Load()
		if cur >= ts || o.timeCounter.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Now returns the most recently issued timestamp.
func (o *Oracle) Now() uint64 { return o.timeCounter.Load() }

// GetTS implements Algorithm 2's getTS: atomically increment the counter,
// publish the timestamp in the Active set, and retry if a concurrent
// getSnap has already fenced at or above it. The returned slot must be
// passed to Done once the write is in the memtable.
func (o *Oracle) GetTS() (ts uint64, slot int) { return o.draw(1, 0) }

// GetTSBatch reserves n consecutive timestamps for an atomic batch,
// returning the first. The first timestamp is registered in the Active set
// (it lower-bounds the whole range, which is all FindMin needs); the same
// rollback rule as GetTS applies.
func (o *Oracle) GetTSBatch(n uint64) (first uint64, slot int) {
	if n == 0 {
		n = 1
	}
	return o.draw(n, 0)
}

// GetTSBackground is GetTS for a writer that runs beside the
// application's own, such as a value-log relink. getSnap waits its slot
// out instead of stepping below it (waiting is always safe; stepping
// below only saves the wait), so a background write never pulls a
// snapshot below writes the application completed while it ran: a single
// application writer still reads its own writes through every snapshot.
// Fence and ActiveMin treat the slot like any other.
func (o *Oracle) GetTSBackground() (ts uint64, slot int) { return o.draw(1, waitFlag) }

// draw reserves n timestamps and registers the first, tagged with flag.
func (o *Oracle) draw(n, flag uint64) (first uint64, slot int) {
	for {
		first = o.timeCounter.Add(n) - n + 1
		slot = o.active.Add(first | flag)
		if first <= o.snapTime.Load() {
			o.active.Remove(slot)
			continue
		}
		return first, slot
	}
}

// Done removes a timestamp from the Active set (put completed its insert).
func (o *Oracle) Done(slot int) { o.active.Remove(slot) }

// ActiveMin exposes the smallest in-flight put timestamp (tests, debugging).
func (o *Oracle) ActiveMin() uint64 { return o.active.FindMin() }

// SnapshotTS computes a serializable snapshot time (Algorithm 2's getSnap
// body, lines 9–14): start from the current counter, step below the oldest
// active timestamp not drawn by GetTSBackground, then fence there (see
// Fence). The returned time is the fence itself, which a concurrent
// getSnap or Fence may have pushed past this call's candidate; the wait
// covers it either way.
func (o *Oracle) SnapshotTS() uint64 {
	ts := o.timeCounter.Load()
	if m := o.active.findMin(true); m != 0 && m-1 < ts {
		ts = m - 1
	}
	o.advanceSnapTime(ts)
	fence := o.snapTime.Load()
	o.waitPast(fence)
	return fence
}

// Fence makes every timestamp at or below ts settled: it advances the
// snapTime fence to at least ts, then waits until no active put holds a
// timestamp at or below ts. Each such put either finishes its insert (it
// acquired the timestamp before the fence moved) or rolls back in GetTS
// and draws one above the fence. A caller holding slot ts+1 (a commit
// fencing just below its own range) does not wait on itself, even when
// another getSnap or Fence has already moved snapTime past ts+1: the wait
// is bounded by ts, not by the global fence.
func (o *Oracle) Fence(ts uint64) {
	o.advanceSnapTime(ts)
	o.waitPast(ts)
}

// advanceSnapTime atomically sets snapTime to max(snapTime, ts).
func (o *Oracle) advanceSnapTime(ts uint64) {
	for {
		cur := o.snapTime.Load()
		if ts <= cur || o.snapTime.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// waitPast waits until no active timestamp is at or below ts, backing
// off from spinning to yielding to sleeping (syncutil.Backoff): the slot
// holder may be runnable but queued behind other work on a busy P.
func (o *Oracle) waitPast(ts uint64) {
	spins := 0
	for {
		m := o.active.FindMin()
		if m == 0 || m > ts {
			return
		}
		spins = syncutil.Backoff(spins)
	}
}

// SnapTime returns the current snapshot fence (tests).
func (o *Oracle) SnapTime() uint64 { return o.snapTime.Load() }

// InstallSnapshot registers a snapshot handle so merges preserve versions
// it can still see. Per §3.2.1 the caller must hold the engine's shared
// lock, which orders installation against beforeMerge's query; the internal
// mutex only serializes concurrent installs.
func (o *Oracle) InstallSnapshot(ts uint64) {
	o.mu.Lock()
	o.snapshots[ts]++
	o.mu.Unlock()
}

// ReleaseSnapshot drops a snapshot handle (application API call or TTL).
func (o *Oracle) ReleaseSnapshot(ts uint64) {
	o.mu.Lock()
	if n := o.snapshots[ts]; n <= 1 {
		delete(o.snapshots, ts)
	} else {
		o.snapshots[ts] = n - 1
	}
	o.mu.Unlock()
}

// MinSnapshot returns the smallest installed snapshot timestamp, or 0 when
// none is installed. beforeMerge calls this under the exclusive lock; the
// merge then keeps, for every key, the newest version at or below every
// installed snapshot.
func (o *Oracle) MinSnapshot() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var min uint64
	for ts := range o.snapshots {
		if min == 0 || ts < min {
			min = ts
		}
	}
	return min
}
