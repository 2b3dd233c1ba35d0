// Package core implements the cLSM engine: Algorithms 1–3 of the paper
// wired to the substrates. It provides non-blocking gets, mostly
// non-blocking puts guarded by a writer-preferring shared-exclusive lock,
// serializable snapshot scans via the timestamp oracle, and optimistic
// lock-free read-modify-write on the skip-list memtable.
package core

import (
	"errors"
	"fmt"
	"time"

	"clsm/internal/cache"
	"clsm/internal/health"
	"clsm/internal/obs"
	"clsm/internal/scheduler"
	"clsm/internal/storage"
	"clsm/internal/version"
)

// ErrInvalidOptions is returned (wrapped, with the offending field named)
// by Open when the options are nonsensical — a negative size or trigger,
// L0StopTrigger below L0SlowdownTrigger, a negative rate limit, an unknown
// scheduler profile. Zero values are not errors: they select the documented
// defaults. Match with errors.Is.
var ErrInvalidOptions = errors.New("clsm: invalid options")

// Options configures an engine instance.
type Options struct {
	// FS is the storage medium. Defaults to an in-memory filesystem.
	FS storage.FS

	// MemtableSize is the soft spill threshold of the mutable memtable
	// (the paper's default is 128 MB; the engine default is smaller so
	// examples and tests exercise the full merge pipeline quickly).
	MemtableSize int64

	// BlockCacheSize bounds the SSTable block cache.
	BlockCacheSize int64

	// BlockCache, when non-nil, is an externally provided block cache
	// handle — typically a namespaced View of a pool shared across the
	// shards of a sharded store — and BlockCacheSize is ignored. The
	// engine wires its own hit/miss counters onto the handle. When nil,
	// the engine creates a private cache of BlockCacheSize bytes.
	BlockCache *cache.Cache

	// SyncWrites makes every put wait for WAL durability. The paper's
	// (and LevelDB's) default is asynchronous logging.
	SyncWrites bool

	// DisableWAL turns logging off entirely (benchmark ablations only).
	DisableWAL bool

	// LinearizableSnapshots makes getSnap wait for a snapshot timestamp
	// at or above the time counter observed at call time, trading
	// blocking for linearizability (§3.2.1's variant; the default is the
	// serializable, possibly-in-the-past snapshot).
	LinearizableSnapshots bool

	// L0SlowdownTrigger and L0StopTrigger throttle writers when L0 backs
	// up, as in LevelDB.
	L0SlowdownTrigger int
	L0StopTrigger     int

	// SnapshotTTL, when positive, reclaims snapshot handles the
	// application forgot to Close after this duration (§3.2.1 of the
	// paper); reads on a reclaimed handle fail with ErrSnapshotExpired.
	// Zero disables the sweeper.
	SnapshotTTL time.Duration

	// StrictWALTail makes recovery treat a torn WAL tail (the normal
	// debris of a crash mid-append) as hard corruption instead of
	// truncating it and continuing. Open then fails on any crash image
	// with a partial final record. This exists as a negative control for
	// the crash-consistency harness (a correct recovery must tolerate
	// torn tails, and the harness proves the matrix catches this
	// misconfiguration); never set it in production.
	StrictWALTail bool

	// CompactionThreads is the number of concurrent background
	// compactors (1 everywhere in the paper except the RocksDB-style
	// Fig. 11 configuration).
	CompactionThreads int

	// RetryBaseDelay and RetryMaxDelay bound the exponential backoff a
	// background worker applies between retries of a transiently failing
	// flush or compaction (health.DefaultBackoffBase/Cap when zero).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// DegradedStallTimeout bounds how long a single write stalls while
	// the engine is Degraded and the memtable/L0 budget is exhausted;
	// past it the write fails with ErrDegraded instead of blocking
	// indefinitely on a disk that may never recover.
	DegradedStallTimeout time.Duration

	// WriteRateLimit, when positive, caps admitted user-write volume at
	// this many bytes per second: the admission token bucket stays
	// permanently active at (at most) this rate, and the auto-tuner can
	// only lower it under backlog pressure. Zero means no cap — the
	// bucket engages only while background debt demands it.
	WriteRateLimit int64

	// SchedulerProfile selects the background scheduler and write-throttle
	// tuning preset: "default" (balanced) or "legacy" (the historical
	// binary L0 slowdown/stop gate, no auto-tuning — kept for A/B
	// measurement). Empty selects "default".
	SchedulerProfile string

	// PanicOnBGFault disables the background panic recovery (debug mode):
	// a panicking flush or compaction crashes the process with its
	// original stack instead of being recorded as a fatal health error.
	PanicOnBGFault bool

	// OnHealthChange, when set, receives every health state transition
	// (Healthy/Degraded/ReadOnly/Failed), delivered one at a time in
	// commit order. It runs on a background goroutine and must not call
	// back into the engine.
	OnHealthChange func(health.Transition)

	// ValueThreshold routes values of at least this many bytes to the
	// value log (docs/VALUELOG.md): the LSM then stores a fixed-size
	// pointer in their place and compactions never rewrite the value
	// bytes. Zero (the default) disables key-value separation — every
	// value stays inline, the historical behavior.
	ValueThreshold int

	// ValueLogSegmentSize caps value-log segment files; appends past it
	// rotate to a fresh segment (default 64 MB). Segments are the unit of
	// value-log GC.
	ValueLogSegmentSize int64

	// ValueLogGCRatio is the garbage fraction (garbage bytes / segment
	// size, in (0, 1]) past which a sealed segment becomes a GC rewrite
	// candidate (default 0.5). Lower values reclaim space more eagerly at
	// the cost of more relink writes.
	ValueLogGCRatio float64

	// Observer receives the engine's instrumentation: per-op latency
	// histograms, substrate counters, and the flush/compaction/stall
	// event trace. When nil, WithDefaults installs a fresh one — the
	// engine always records, so Metrics and the debug export work out of
	// the box; pass a shared Observer to aggregate or to attach an event
	// sink before Open.
	Observer *obs.Observer

	// Disk tunes the disk component.
	Disk version.Options
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.FS == nil {
		o.FS = storage.NewMemFS()
	}
	if o.MemtableSize <= 0 {
		o.MemtableSize = 4 << 20
	}
	if o.BlockCacheSize <= 0 {
		o.BlockCacheSize = 32 << 20
	}
	if o.L0SlowdownTrigger <= 0 {
		o.L0SlowdownTrigger = 8
	}
	if o.L0StopTrigger <= 0 {
		o.L0StopTrigger = 12
	}
	if o.CompactionThreads <= 0 {
		o.CompactionThreads = 1
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = health.DefaultBackoffBase
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = health.DefaultBackoffCap
	}
	if o.DegradedStallTimeout <= 0 {
		o.DegradedStallTimeout = time.Second
	}
	if o.ValueLogSegmentSize <= 0 {
		o.ValueLogSegmentSize = 64 << 20
	}
	if o.ValueLogGCRatio <= 0 {
		o.ValueLogGCRatio = 0.5
	}
	if o.Observer == nil {
		o.Observer = obs.New()
	}
	o.Disk = o.Disk.WithDefaults()
	return o
}

// Validate rejects nonsensical configurations before WithDefaults papers
// over them. The zero value of every field remains valid (it means "use
// the default"); what Validate catches is actively contradictory input:
// negative sizes, counts, or durations, an inverted L0 trigger pair, a
// negative rate limit, an unknown scheduler profile. Every error wraps
// ErrInvalidOptions.
func (o Options) Validate() error {
	bad := func(field string, v any) error {
		return fmt.Errorf("%w: %s = %v", ErrInvalidOptions, field, v)
	}
	if o.MemtableSize < 0 {
		return bad("MemtableSize", o.MemtableSize)
	}
	if o.BlockCacheSize < 0 {
		return bad("BlockCacheSize", o.BlockCacheSize)
	}
	if o.L0SlowdownTrigger < 0 {
		return bad("L0SlowdownTrigger", o.L0SlowdownTrigger)
	}
	if o.L0StopTrigger < 0 {
		return bad("L0StopTrigger", o.L0StopTrigger)
	}
	if o.L0SlowdownTrigger > 0 && o.L0StopTrigger > 0 && o.L0StopTrigger < o.L0SlowdownTrigger {
		return fmt.Errorf("%w: L0StopTrigger (%d) < L0SlowdownTrigger (%d)",
			ErrInvalidOptions, o.L0StopTrigger, o.L0SlowdownTrigger)
	}
	if o.CompactionThreads < 0 {
		return bad("CompactionThreads", o.CompactionThreads)
	}
	if o.SnapshotTTL < 0 {
		return bad("SnapshotTTL", o.SnapshotTTL)
	}
	if o.RetryBaseDelay < 0 {
		return bad("RetryBaseDelay", o.RetryBaseDelay)
	}
	if o.RetryMaxDelay < 0 {
		return bad("RetryMaxDelay", o.RetryMaxDelay)
	}
	if o.DegradedStallTimeout < 0 {
		return bad("DegradedStallTimeout", o.DegradedStallTimeout)
	}
	if o.WriteRateLimit < 0 {
		return bad("WriteRateLimit", o.WriteRateLimit)
	}
	if _, err := scheduler.ProfileByName(o.SchedulerProfile); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if o.ValueThreshold < 0 {
		return bad("ValueThreshold", o.ValueThreshold)
	}
	if o.ValueLogSegmentSize < 0 {
		return bad("ValueLogSegmentSize", o.ValueLogSegmentSize)
	}
	if o.ValueLogGCRatio < 0 || o.ValueLogGCRatio > 1 {
		return bad("ValueLogGCRatio", o.ValueLogGCRatio)
	}
	if o.ValueThreshold > 0 {
		// A threshold past the memtable's spill size can never trigger
		// before the write itself forces a rotation: the configuration is
		// contradictory, not merely conservative.
		memSize := o.MemtableSize
		if memSize <= 0 {
			memSize = 4 << 20
		}
		if int64(o.ValueThreshold) > memSize {
			return fmt.Errorf("%w: ValueThreshold (%d) > MemtableSize (%d)",
				ErrInvalidOptions, o.ValueThreshold, memSize)
		}
		if o.DisableWAL && o.SyncWrites {
			// SyncWrites promises durability-on-ack through the WAL; with
			// the WAL disabled a synced value-log entry's pointer is not
			// durable, so the combination would silently lie.
			return fmt.Errorf("%w: ValueThreshold with DisableWAL and SyncWrites (no log to make pointers durable)",
				ErrInvalidOptions)
		}
	}
	if o.Disk.L0CompactionTrigger < 0 {
		return bad("Disk.L0CompactionTrigger", o.Disk.L0CompactionTrigger)
	}
	if o.Disk.BaseLevelBytes < 0 {
		return bad("Disk.BaseLevelBytes", o.Disk.BaseLevelBytes)
	}
	if o.Disk.TableFileSize < 0 {
		return bad("Disk.TableFileSize", o.Disk.TableFileSize)
	}
	if o.Disk.BlockSize < 0 {
		return bad("Disk.BlockSize", o.Disk.BlockSize)
	}
	if o.Disk.BloomBitsPerKey < 0 {
		return bad("Disk.BloomBitsPerKey", o.Disk.BloomBitsPerKey)
	}
	return nil
}

// Metrics exposes engine counters. All fields are cumulative.
type Metrics struct {
	Puts       uint64
	Gets       uint64
	Deletes    uint64
	RMWs       uint64
	RMWRetries uint64
	// Txns counts committed transactions (including read-only ones);
	// TxnConflicts counts commit attempts rejected by OCC validation.
	Txns         uint64
	TxnConflicts uint64
	Snapshots    uint64
	Flushes      uint64
	Compactions  uint64
	// FlushBytes and CompactionBytes are the cumulative volumes written
	// by memtable flushes and level compactions (write amplification =
	// (FlushBytes+CompactionBytes) / logical bytes written).
	FlushBytes      uint64
	CompactionBytes uint64
	StallTime       time.Duration
	// WriteStalls counts stall episodes writers entered (slowdown, stop,
	// or memtable waits); the event trace has the per-episode timeline.
	WriteStalls uint64
	// CacheHits and CacheMisses are block cache counters.
	CacheHits   uint64
	CacheMisses uint64
	// Disk shape.
	DiskBytes uint64
	DiskFiles int
	LevelSize [version.NumLevels]int
	// Value-log shape (docs/VALUELOG.md): live segment count, manifest-
	// accounted garbage bytes awaiting GC, and completed GC segment
	// rewrites.
	VlogSegments     int
	VlogGarbageBytes uint64
	VlogGCRuns       uint64
}
