// Package syncutil provides the custom synchronization primitives cLSM is
// built from: a writer-preferring shared-exclusive lock, RCU-style
// reference-counted resources, and a striped lock used by the baseline
// read-modify-write implementation (Fig. 9's competitor).
package syncutil

import (
	"runtime"
	"sync/atomic"
	"time"
)

// SharedExclusive is a shared-exclusive (readers-writer) lock that prefers
// exclusive acquisition, as §3.1 of the paper requires: once a merge thread
// announces intent, new shared lockers back off so beforeMerge/afterMerge
// cannot starve. Shared acquisition is a single atomic add in the
// uncontended case, so puts pay almost nothing.
//
// The zero value is an unlocked lock.
type SharedExclusive struct {
	readers atomic.Int64
	writer  atomic.Bool
}

const spinsBeforeYield = 64

// LockShared acquires the lock in shared mode.
func (l *SharedExclusive) LockShared() {
	spins := 0
	for {
		if !l.writer.Load() {
			l.readers.Add(1)
			if !l.writer.Load() {
				return
			}
			// A writer slipped in between the check and the increment;
			// back out and defer to it (writer preference).
			l.readers.Add(-1)
		}
		spins = Backoff(spins)
	}
}

// UnlockShared releases a shared acquisition.
func (l *SharedExclusive) UnlockShared() {
	l.readers.Add(-1)
}

// LockExclusive acquires the lock in exclusive mode, waiting out current
// shared holders while blocking new ones.
func (l *SharedExclusive) LockExclusive() {
	spins := 0
	for !l.writer.CompareAndSwap(false, true) {
		spins = Backoff(spins)
	}
	spins = 0
	for l.readers.Load() != 0 {
		spins = Backoff(spins)
	}
}

// UnlockExclusive releases an exclusive acquisition.
func (l *SharedExclusive) UnlockExclusive() {
	l.writer.Store(false)
}

// Backoff spins briefly, then yields, then sleeps, returning the updated
// spin count; call it once per failed poll with the previous count
// (starting at 0). The sleep tier matters when the awaited goroutine is
// runnable but not running: on a few Ps, a goroutine that only yields is
// picked straight back up, and the one it waits for stays queued behind
// other work until preemption. Exclusive sections and timestamp fences
// are short, so the sleep tier is rarely reached.
func Backoff(spins int) int {
	spins++
	switch {
	case spins < spinsBeforeYield:
		// busy spin
	case spins < spinsBeforeYield*4:
		runtime.Gosched()
	default:
		time.Sleep(10 * time.Microsecond)
	}
	return spins
}
