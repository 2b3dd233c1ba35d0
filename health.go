package clsm

import (
	"clsm/internal/core"
	"clsm/internal/health"
)

// HealthState is the store's background-fault state. A store is Healthy
// until a background flush or compaction fails; the error's class then
// decides where the state machine goes:
//
//   - transient errors (disk full, injected I/O faults, timeouts) make the
//     store Degraded: the failed merge is retried with capped exponential
//     backoff, writes keep landing in the memtable until the in-memory
//     budget is exhausted, then stall for a bounded period, then fail with
//     ErrDegraded. A successful retry auto-resumes the store to Healthy.
//   - corruption (torn WAL record, bad table block, corrupt manifest edit)
//     makes the store ReadOnly: reads, snapshots, and iterators keep
//     serving the installed version; writes fail with ErrReadOnly until
//     DB.Resume.
//   - anything unclassifiable makes the store Failed, which is sticky.
//
// See docs/FAULT_TOLERANCE.md for the full policy.
type HealthState = health.State

// Health states, in escalating severity order.
const (
	Healthy  = health.Healthy
	Degraded = health.Degraded
	ReadOnly = health.ReadOnly
	Failed   = health.Failed
)

// HealthStatus is a point-in-time view of the store's health: the state
// and the background error that caused it (nil when Healthy).
type HealthStatus = core.HealthStatus

// HealthChange describes one health state transition, delivered to the
// WithHealthChange callback in commit order.
type HealthChange = health.Transition

// Health reports the store's current background-fault state. On a
// sharded store this is the worst shard's state (states are ordered by
// severity) with that shard's error; ShardObservers exposes the
// per-shard detail.
func (db *DB) Health() HealthStatus { return db.sh.Health() }

// Resume manually returns a Degraded or ReadOnly store to Healthy — call
// it after freeing disk space, or after offline repair of a corrupted
// store whose risk you accept. Resuming a Healthy store is a no-op; a
// Failed store is sticky and Resume returns its fatal cause.
func (db *DB) Resume() error { return db.sh.Resume() }
