package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"clsm/internal/health"
	"clsm/internal/obs"
)

// Sentinel errors of the degraded and read-only health states. Both are
// wrapped with the concrete cause, so match with errors.Is.
var (
	// ErrDegraded is returned by writes whose bounded stall expired while
	// the engine was retrying a transient background fault.
	ErrDegraded = errors.New("clsm: database degraded (background error backlog)")
	// ErrReadOnly is returned by writes while a corruption error has the
	// store quarantined; reads, snapshots, and iterators keep serving.
	ErrReadOnly = errors.New("clsm: database read-only (corruption quarantine)")
)

// originFlush is the health-reporting origin of the memtable merge path
// (the flush loop and synchronous forced flushes share it: they contend on
// flushMu for the same work).
const originFlush = "flush"

// HealthStatus is a point-in-time view of the engine's background-fault
// state: the state machine position and the error that put it there (nil
// when Healthy).
type HealthStatus struct {
	State health.State
	Err   error
}

// Health reports the engine's current background-fault state.
func (db *DB) Health() HealthStatus {
	st, err := db.health.Status()
	return HealthStatus{State: st, Err: err}
}

// Resume manually returns a Degraded or ReadOnly engine to Healthy — the
// operator freed disk space, or accepts the risk after offline repair. It
// wakes workers parked in backoff waits and writers parked in degraded
// stalls. Resuming a Healthy engine is a no-op; a Failed engine is sticky
// and Resume returns its fatal cause.
func (db *DB) Resume() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.health.Resume(); err != nil {
		return err
	}
	// Reset the admission throttle: the operator vouched for the disk, so
	// parked writers are admitted immediately and the auto-tuned rate
	// returns to its configured baseline.
	db.throttle.Reset()
	db.wakeStalled(&db.resumed)
	db.sched.Kick()
	return nil
}

// onHealthChange is the monitor's transition callback: it mirrors the state
// into the gauge, emits the trace event, and forwards to the user hook.
func (db *DB) onHealthChange(tr health.Transition) {
	db.obs.HealthState.Store(uint64(tr.To))
	msg := ""
	if tr.Cause != nil {
		msg = tr.Cause.Error()
	}
	switch tr.To {
	case health.Degraded:
		db.obs.Event(obs.Event{Type: obs.EvDegraded, Msg: msg})
	case health.ReadOnly:
		db.obs.Event(obs.Event{Type: obs.EvReadOnly, Msg: msg})
		// Quarantine: background merges must not touch the disk. Pause
		// drops the queue; the planner regenerates it after Resume. (The
		// nil guard covers transitions during Open, before the scheduler
		// exists.)
		if db.sched != nil {
			db.sched.Pause()
		}
	case health.Failed:
		if db.sched != nil {
			db.sched.Pause()
		}
	case health.Healthy:
		db.obs.Event(obs.Event{Type: obs.EvResumed})
		if db.sched != nil {
			db.sched.Resume()
		}
	}
	if db.opts.OnHealthChange != nil {
		db.opts.OnHealthChange(tr)
	}
}

// wrapHealthErr pairs a state sentinel (ErrDegraded, ErrReadOnly) with the
// concrete background error behind it, keeping both reachable through
// errors.Is.
func wrapHealthErr(sentinel, cause error) error {
	if cause == nil {
		return sentinel
	}
	return fmt.Errorf("%w: %w", sentinel, cause)
}

// writeGate is the write-path admission check. Healthy and Degraded admit
// (Degraded writes land in the memtable; the stall machinery bounds them
// when the budget runs out), ReadOnly and Failed reject. The healthy path
// is one atomic load and allocation-free.
func (db *DB) writeGate() error {
	switch db.health.State() {
	case health.Healthy, health.Degraded:
		return nil
	case health.ReadOnly:
		return wrapHealthErr(ErrReadOnly, db.health.Err())
	}
	// Failed: prefer the sticky background error (set by the worker that
	// died); the health cause covers the window before it lands.
	if err := db.backgroundErr(); err != nil {
		return err
	}
	return db.health.Err()
}

// bgRunnable reports whether background merges should run: yes while
// Healthy or Degraded (retrying), no while quarantined or failed.
func (db *DB) bgRunnable() bool {
	s := db.health.State()
	return s == health.Healthy || s == health.Degraded
}

// newBackoff builds a retry schedule from the engine options. Each worker
// owns one (Backoff is not concurrency-safe).
func (db *DB) newBackoff() *health.Backoff {
	return &health.Backoff{Base: db.opts.RetryBaseDelay, Cap: db.opts.RetryMaxDelay}
}

// supervised runs one unit of background work with panic containment:
// a panicking merge becomes a *health.PanicError (classified fatal) instead
// of killing the process. PanicOnBGFault (debug mode) disables the net.
func (db *DB) supervised(fn func() error) (err error) {
	if !db.opts.PanicOnBGFault {
		defer func() {
			if r := recover(); r != nil {
				err = &health.PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
	}
	return fn()
}

// reportForeground folds a synchronous, caller-driven merge failure
// (CompactRange) into the health machine — but only corruption: a store
// whose tables fail their checksums must quarantine read-only no matter
// which path discovered it. Transient errors stay the caller's to retry
// (reporting them would strand a failing origin no background loop ever
// clears), and unclassifiable errors are returned, not escalated — the
// caller's operation failed, the engine itself may be fine.
func (db *DB) reportForeground(origin string, err error) {
	if db.classifier.Classify(err) == health.ClassCorruption {
		db.health.Report(origin, err)
	}
}

// settleBG folds one background attempt's outcome into the health machine
// and reports whether the attempt succeeded. On success the origin is
// cleared (possibly auto-resuming the engine) and the backoff resets. On a
// transient failure settleBG sleeps out the next backoff delay — cut short
// by Close or an explicit Resume — so the caller retries on return. Fatal
// errors poison the engine the historical way; corruption needs no extra
// action (Report already quarantined the store). An ErrClosed seen once
// Close has begun is the job noticing shutdown, not a fault: it is not
// reported, so Close neither returns it nor marks the store Failed. Call
// without holding flushMu: the backoff wait must not block the other
// merge driver.
func (db *DB) settleBG(origin string, err error, b *health.Backoff) bool {
	if err == nil {
		if db.health.OK(origin) {
			db.obs.BGAutoResumes.Inc()
		}
		b.Reset()
		return true
	}
	if errors.Is(err, ErrClosed) {
		select {
		case <-db.closing:
			return false
		default:
		}
	}
	switch db.health.Report(origin, err) {
	case health.ClassTransient:
		db.obs.BGRetries.Inc()
		resumed := *db.resumed.Load()
		select {
		case <-db.closing:
		case <-resumed:
			b.Reset()
		case <-time.After(b.Next()):
		}
	case health.ClassFatal:
		db.setBGErr(err)
	}
	return false
}
