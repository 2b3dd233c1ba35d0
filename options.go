package clsm

import (
	"time"

	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/storage"
	"clsm/internal/version"
)

// Options configures a store. The zero value is a usable in-memory store;
// every field's zero value picks the default listed below. Options and
// the functional options accepted by OpenPath configure the same
// settings and delegate onto one path — use whichever reads better.
//
// Defaults (the single source of truth for the public surface):
//
//	MemtableSize          4 MiB
//	BlockCacheSize        32 MiB
//	SyncWrites            false (asynchronous group logging)
//	DisableWAL            false
//	LinearizableSnapshots false (serializable snapshots)
//	CompactionThreads     1
//	SnapshotTTL           0 (handles never expire)
//	Compression           false
//	WriteRateLimit        0 (no cap; throttle engages only under backlog)
//	SchedulerProfile      "default"
//	L0CompactionTrigger   4 files
//	L0SlowdownTrigger     8 files
//	L0StopTrigger         12 files
//	BaseLevelBytes        10 MiB
//	TableFileSize         2 MiB
//	BlockSize             4 KiB
//	BloomBitsPerKey       0 (Bloom filters disabled; 10 is a good value)
//	ValueThreshold        0 (key-value separation disabled)
//	ValueLogSegmentSize   64 MiB
//	ValueLogGCRatio       0.5
type Options struct {
	// Path is the database directory on the local filesystem. When empty,
	// the store runs on a volatile in-memory filesystem (tests, caches,
	// benchmarks).
	Path string

	// Shards, when >= 1, opens the store horizontally sharded: keys are
	// hash-partitioned across this many fully independent engines (each
	// with its own memtable, WAL, levels, and scheduler), removing the
	// single-store write chokepoints and cutting compaction write
	// amplification. A global memory governor shifts memtable quota
	// between shards and the shared block cache under skewed load. The
	// shard count is part of the on-disk layout and must match on every
	// reopen. Zero (the default) opens a single engine in the flat
	// layout; 1 is also a single engine, in the sharded layout (see the
	// package doc).
	// Sharding cannot be combined with LinearizableSnapshots (there is
	// no cross-shard timestamp). See docs/SHARDING.md.
	Shards int

	// MemtableSize is the in-memory component's spill threshold in bytes.
	// Default 4 MiB (the paper's serving configuration uses 128 MiB; see
	// the Fig. 8 benchmark for the effect of this knob). Under sharding
	// this is each shard's initial budget; the governor rebalances from
	// there.
	MemtableSize int64

	// BlockCacheSize bounds the SSTable block cache in bytes (default 32 MiB).
	BlockCacheSize int64

	// SyncWrites makes every write wait for WAL durability. Default
	// false: asynchronous group logging, which allows writes at memory
	// speed at the risk of losing the last few writes in a crash.
	SyncWrites bool

	// DisableWAL turns off logging entirely. Data not yet flushed to
	// sorted tables is lost on restart. For caches and benchmarks.
	DisableWAL bool

	// LinearizableSnapshots trades snapshot acquisition latency for
	// linearizability: the snapshot is guaranteed to include every write
	// completed before GetSnapshot was called. The default (false) gives
	// serializable snapshots that may be slightly in the past.
	LinearizableSnapshots bool

	// CompactionThreads is the number of background compaction workers
	// (default 1).
	CompactionThreads int

	// SnapshotTTL, when positive, reclaims snapshot handles the
	// application forgot to Close after this duration; reads on a
	// reclaimed handle fail with ErrSnapshotExpired.
	SnapshotTTL time.Duration

	// Compression enables DEFLATE compression of on-disk table blocks.
	Compression bool

	// EventSink, when set, receives every engine trace event (flushes,
	// compactions, write stalls, snapshot reclaims) synchronously. See
	// WithObserver and the Observer returned by DB.Observer.
	EventSink EventSink

	// OnHealthChange, when set, receives every health state transition
	// (Healthy/Degraded/ReadOnly/Failed) one at a time, in commit order —
	// the hook for alerting on background faults. It runs on an engine
	// goroutine and must not call back into the store. See DB.Health.
	OnHealthChange func(HealthChange)

	// WriteRateLimit, when positive, caps admitted write volume at this
	// many bytes per second: the admission token bucket stays permanently
	// active at (at most) this rate, and the background auto-tuner can only
	// lower it while flush/compaction debt demands it. Zero (the default)
	// means no cap — the throttle engages only under backlog. See
	// docs/SCHEDULING.md.
	WriteRateLimit int64

	// SchedulerProfile selects the background scheduler and write-throttle
	// tuning preset: "default" (balanced), "throughput" (gentle decay, fast
	// recovery), "latency" (hard decay, cautious recovery), or "legacy"
	// (the historical binary L0 slowdown/stop gate, no auto-tuning — kept
	// for A/B measurement). Empty selects "default". Open rejects unknown
	// names with ErrInvalidOptions.
	SchedulerProfile string

	// L0CompactionTrigger is the L0 file count that triggers a
	// background compaction. L0SlowdownTrigger and L0StopTrigger feed the
	// write-admission controller: between them the throttle decays
	// multiplicatively, past the stop trigger it decays hard (under the
	// "legacy" profile they instead gate writers with LevelDB's binary
	// pause/stop behavior).
	L0CompactionTrigger int
	L0SlowdownTrigger   int
	L0StopTrigger       int

	// BaseLevelBytes, TableFileSize, BlockSize and BloomBitsPerKey shape
	// the disk component; zero values pick LevelDB-compatible defaults.
	BaseLevelBytes  int64
	TableFileSize   int64
	BlockSize       int
	BloomBitsPerKey int

	// ValueThreshold, when positive, separates keys from large values
	// (docs/VALUELOG.md): values of at least this many bytes are written
	// once to an append-only segmented value log and the LSM stores a
	// fixed-size pointer, so compactions stop rewriting the value bytes.
	// Values below the threshold keep the inline path unchanged. Zero (the
	// default) disables separation. Must be no larger than MemtableSize;
	// combining it with DisableWAL+SyncWrites is rejected (there is no log
	// to make the pointers durable).
	ValueThreshold int

	// ValueLogSegmentSize is the rotation size of value-log segments in
	// bytes (default 64 MiB). Larger segments amortize file overhead;
	// smaller ones give garbage collection finer reclamation units.
	ValueLogSegmentSize int64

	// ValueLogGCRatio is the garbage fraction (0, 1] at which a sealed
	// value-log segment becomes a GC rewrite candidate (default 0.5).
	// Lower values reclaim space sooner at the cost of more rewrite I/O.
	ValueLogGCRatio float64
}

// Option mutates Options; see OpenPath. The With* constructors cover the
// common knobs; anything else is reachable by opening with the struct
// form, which is equivalent.
type Option func(*Options)

// WithShards opens the store hash-partitioned across n independent
// engines (see Options.Shards and docs/SHARDING.md). n must be at
// least 1; smaller values make Open fail with ErrInvalidOptions.
func WithShards(n int) Option {
	return func(o *Options) {
		if n < 1 {
			// Remember the invalid request (the zero value means
			// "unsharded", so it cannot carry the error to Open).
			o.Shards = -1
			return
		}
		o.Shards = n
	}
}

// WithMemtableSize sets the memtable spill threshold in bytes.
func WithMemtableSize(n int64) Option {
	return func(o *Options) { o.MemtableSize = n }
}

// WithBlockCacheSize bounds the SSTable block cache in bytes.
func WithBlockCacheSize(n int64) Option {
	return func(o *Options) { o.BlockCacheSize = n }
}

// WithSyncWrites makes every write wait for WAL durability.
func WithSyncWrites(on bool) Option {
	return func(o *Options) { o.SyncWrites = on }
}

// WithDisableWAL turns off write-ahead logging entirely.
func WithDisableWAL(on bool) Option {
	return func(o *Options) { o.DisableWAL = on }
}

// WithCompression enables DEFLATE compression of on-disk table blocks.
func WithCompression(on bool) Option {
	return func(o *Options) { o.Compression = on }
}

// WithCompactionThreads sets the number of background compaction workers.
func WithCompactionThreads(n int) Option {
	return func(o *Options) { o.CompactionThreads = n }
}

// WithSnapshotTTL reclaims forgotten snapshot handles after d.
func WithSnapshotTTL(d time.Duration) Option {
	return func(o *Options) { o.SnapshotTTL = d }
}

// WithLinearizableSnapshots makes GetSnapshot linearizable at the cost of
// a (short) blocking acquisition.
func WithLinearizableSnapshots(on bool) Option {
	return func(o *Options) { o.LinearizableSnapshots = on }
}

// WithWriteRateLimit caps admitted write volume at n bytes per second
// (0 = no cap; see Options.WriteRateLimit).
func WithWriteRateLimit(n int64) Option {
	return func(o *Options) { o.WriteRateLimit = n }
}

// WithSchedulerProfile selects the background scheduler and write-throttle
// tuning preset: "default", "throughput", "latency", or "legacy" (see
// Options.SchedulerProfile).
func WithSchedulerProfile(name string) Option {
	return func(o *Options) { o.SchedulerProfile = name }
}

// WithL0Triggers sets the L0 file-count thresholds: compaction kicks in
// at compact files, writers slow down at slowdown and stop at stop. Zero
// values keep the defaults (4, 8, 12).
func WithL0Triggers(compact, slowdown, stop int) Option {
	return func(o *Options) {
		o.L0CompactionTrigger = compact
		o.L0SlowdownTrigger = slowdown
		o.L0StopTrigger = stop
	}
}

// WithObserver installs sink as the engine event callback: it receives
// every flush, compaction, write-stall and snapshot-reclaim event
// synchronously, in order. Latency histograms and counters are always
// collected regardless and are reachable via DB.Observer.
func WithObserver(sink EventSink) Option {
	return func(o *Options) { o.EventSink = sink }
}

// WithHealthChange installs fn as the health transition callback: it fires
// when the store degrades on a transient background fault, quarantines
// read-only on corruption, fails fatally, or resumes to Healthy.
func WithHealthChange(fn func(HealthChange)) Option {
	return func(o *Options) { o.OnHealthChange = fn }
}

// WithValueThreshold separates values of at least n bytes into the
// segmented value log (0 disables separation; see Options.ValueThreshold
// and docs/VALUELOG.md).
func WithValueThreshold(n int) Option {
	return func(o *Options) { o.ValueThreshold = n }
}

// WithValueLogSegmentSize sets the value-log segment rotation size in
// bytes (see Options.ValueLogSegmentSize).
func WithValueLogSegmentSize(n int64) Option {
	return func(o *Options) { o.ValueLogSegmentSize = n }
}

// WithValueLogGCRatio sets the garbage fraction at which a value-log
// segment is rewritten (see Options.ValueLogGCRatio).
func WithValueLogGCRatio(f float64) Option {
	return func(o *Options) { o.ValueLogGCRatio = f }
}

// engineOptions lowers the public Options onto core options. It is the
// single delegation path shared by Open and OpenPath, so the two
// constructors cannot drift (asserted by TestOpenPathEquivalence).
func (o Options) engineOptions(fs storage.FS, observer *obs.Observer) core.Options {
	return core.Options{
		FS:                    fs,
		MemtableSize:          o.MemtableSize,
		BlockCacheSize:        o.BlockCacheSize,
		SyncWrites:            o.SyncWrites,
		DisableWAL:            o.DisableWAL,
		LinearizableSnapshots: o.LinearizableSnapshots,
		SnapshotTTL:           o.SnapshotTTL,
		CompactionThreads:     o.CompactionThreads,
		L0SlowdownTrigger:     o.L0SlowdownTrigger,
		L0StopTrigger:         o.L0StopTrigger,
		WriteRateLimit:        o.WriteRateLimit,
		SchedulerProfile:      o.SchedulerProfile,
		OnHealthChange:        o.OnHealthChange,
		Observer:              observer,
		ValueThreshold:        o.ValueThreshold,
		ValueLogSegmentSize:   o.ValueLogSegmentSize,
		ValueLogGCRatio:       o.ValueLogGCRatio,
		Disk: version.Options{
			L0CompactionTrigger: o.L0CompactionTrigger,
			BaseLevelBytes:      o.BaseLevelBytes,
			TableFileSize:       o.TableFileSize,
			BlockSize:           o.BlockSize,
			BloomBitsPerKey:     o.BloomBitsPerKey,
			Compress:            o.Compression,
		},
	}
}
