// Package clsm is a concurrent log-structured merge key-value store — a
// from-scratch Go implementation of cLSM ("Scaling Concurrent Log-Structured
// Data Stores", EuroSys 2015).
//
// The store offers atomic Put/Get/Delete, consistent snapshot scans and
// range queries, atomic write batches, and general non-blocking atomic
// read-modify-write operations, on top of a LevelDB-style leveled LSM tree
// (write-ahead log, sorted-table files, block cache, background
// compaction). Its concurrency design follows the paper: gets never block;
// puts run concurrently under a shared lock and block only for the short
// pointer-swap windows around memtable merges; snapshots are timestamps
// issued by a non-blocking oracle; and read-modify-write uses optimistic
// conflict detection directly on the lock-free skip-list memtable.
//
// # Quick start
//
//	db, err := clsm.OpenPath("/tmp/mydb",
//		clsm.WithMemtableSize(64<<20),
//		clsm.WithSnapshotTTL(time.Minute))
//	if err != nil { ... }
//	defer db.Close()
//
//	db.Put([]byte("k"), []byte("v"))
//	v, ok, err := db.Get([]byte("k"))
//
//	snap, _ := db.GetSnapshot()
//	defer snap.Close()
//	it, _ := snap.NewIterator()
//	defer it.Close()
//	for it.Seek([]byte("a")); it.Valid(); it.Next() { ... }
//
// The struct form clsm.Open(clsm.Options{...}) configures the same
// settings; both constructors delegate onto one path.
//
// # One facade, N engines
//
// Every DB is a hash-partitioned facade over N independent engines
// (docs/SHARDING.md); an unsharded store is N=1, so every operation runs
// the same code at any shard count. Options.Shards (WithShards,
// OpenSharded) picks N and the on-disk layout, and nothing else:
//
//   - Shards == 0 (the default) is the flat layout: one engine whose
//     files live in the store directory itself.
//   - Shards >= 1 is the sharded layout: a CLSM_SHARDS marker in the
//     store directory records the count, and shard i lives in the
//     subdirectory shard-%03d. Routing depends on the count, so a store
//     reopens only with the count it was created with.
//
// Checkpoints and backups keep the layout of the store they were taken
// from.
//
// # Observability
//
// Every store continuously records operation latency histograms, block
// cache / WAL / compaction counters, and a trace of engine events (memtable
// flushes, level compactions, write stalls, snapshot reclaims). See
// DB.Observer, WithObserver, and docs/OBSERVABILITY.md.
package clsm

import (
	"context"
	"fmt"
	"path/filepath"

	"clsm/internal/batch"
	"clsm/internal/cache"
	"clsm/internal/core"
	"clsm/internal/obs"
	"clsm/internal/shard"
	"clsm/internal/storage"
)

// Batch is an ordered set of writes applied atomically by DB.Write.
type Batch = batch.Batch

// IterOptions bounds an iterator to the user-key range
// [LowerBound, UpperBound); see DB.NewIterator.
type IterOptions = core.IterOptions

// Value is one MultiGet result; see DB.MultiGet.
type Value = core.Value

// Metrics reports engine counters; see DB.Metrics.
type Metrics = core.Metrics

// DB is a concurrent LSM key-value store. All methods are safe for
// concurrent use by any number of goroutines.
//
// Every DB is the shard facade over N engines; an unsharded store is
// simply N=1. Options.Shards only decides N and the on-disk layout (see
// shardDir), so the API and the code path are the same either way.
type DB struct {
	sh     *shard.DB
	shards int // Options.Shards as opened; 0 selects the flat layout
}

// Open creates or opens a store configured by the options struct. It is
// equivalent to OpenPath with the corresponding With* options; both
// constructors lower onto the same engine configuration: one engine per
// shard, each with its own FS root and observer, sharing one block cache,
// plus (past one shard) the memory governor's fixed budget.
func Open(opts Options) (*DB, error) {
	n := max(opts.Shards, 1)
	switch {
	case opts.Shards < 0:
		return nil, fmt.Errorf("%w: WithShards requires at least 1 shard", ErrInvalidOptions)
	case n > MaxShards:
		return nil, fmt.Errorf("%w: %d shards exceeds MaxShards (%d)", ErrInvalidOptions, n, MaxShards)
	case n > 1 && opts.LinearizableSnapshots:
		return nil, fmt.Errorf("%w: LinearizableSnapshots requires a single shard (shard oracles are independent; there is no cross-shard timestamp)", ErrInvalidOptions)
	}
	if err := checkLayout(opts.Path, opts.Shards); err != nil {
		return nil, err
	}

	cacheSize := opts.BlockCacheSize
	if cacheSize <= 0 {
		cacheSize = 32 << 20 // the engine default, resolved here for the shared pool
	}
	pool := cache.New(cacheSize)
	sopts := shard.Options{}
	if n > 1 {
		// One fixed byte budget for the whole store: every shard's
		// memtable quota plus the shared cache. The governor shifts
		// bytes inside it; it never grows the total.
		mem := opts.MemtableSize
		if mem <= 0 {
			mem = 4 << 20
		}
		sopts.Governor = shard.GovernorConfig{
			TotalBytes: int64(n)*mem + cacheSize,
			Cache:      pool,
		}
	}
	for i := 0; i < n; i++ {
		var fs storage.FS
		if opts.Path == "" {
			fs = storage.NewMemFS()
		} else {
			osfs, err := storage.NewOSFS(filepath.Join(opts.Path, shardDir(opts.Shards, i)))
			if err != nil {
				return nil, err
			}
			fs = osfs
		}
		observer := obs.New()
		observer.Trace.SetShard(i)
		if opts.EventSink != nil {
			observer.Trace.SetSink(opts.EventSink)
		}
		eng := opts.engineOptions(fs, observer)
		eng.BlockCache = pool.View(i)
		sopts.Engines = append(sopts.Engines, eng)
	}
	sh, err := shard.Open(sopts)
	if err != nil {
		return nil, err
	}
	return &DB{sh: sh, shards: opts.Shards}, nil
}

// OpenPath creates or opens the store at path (empty path = volatile
// in-memory store), configured by functional options:
//
//	db, err := clsm.OpenPath(dir,
//		clsm.WithMemtableSize(128<<20),
//		clsm.WithCompactionThreads(4),
//		clsm.WithObserver(func(e clsm.Event) { log.Println(e.Type) }))
func OpenPath(path string, options ...Option) (*DB, error) {
	opts := Options{Path: path}
	for _, apply := range options {
		apply(&opts)
	}
	return Open(opts)
}

// Put stores (key, value), overwriting any previous value. It never blocks
// except during memtable-merge pointer swaps and write stalls.
func (db *DB) Put(key, value []byte) error { return db.sh.Put(key, value) }

// Get returns the current value of key. ok is false when the key is absent
// or deleted — absence is not an error (see the package error docs). Gets
// never block.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) { return db.sh.Get(key) }

// Has reports whether key is present (not deleted). It mirrors Get's
// tri-state contract: absence is (false, nil), err is reserved for real
// failures. Snapshot.Has is the snapshot-scoped equivalent.
func (db *DB) Has(key []byte) (bool, error) { return db.sh.Has(key) }

// MultiGet returns the current value of every key in one call:
// results[i] corresponds to keys[i], with absence reported per key through
// Value.Exists rather than an error. The batch is read against a single
// consistent component set — cheaper and stronger than a Get loop, which
// may interleave with flushes. Snapshot.MultiGet is the snapshot-scoped
// equivalent.
func (db *DB) MultiGet(keys [][]byte) ([]Value, error) { return db.sh.MultiGet(keys) }

// Delete removes key.
func (db *DB) Delete(key []byte) error { return db.sh.Delete(key) }

// Write applies the batch atomically: concurrent readers and snapshots see
// either all of the batch or none of it.
func (db *DB) Write(b *Batch) error { return db.sh.Write(b) }

// PutCtx is Put with cancellation: write-admission throttle waits,
// memtable/L0 stalls, and the bounded degraded-mode stall
// (Options.DegradedStallTimeout) all return ctx.Err() as soon as ctx is
// done instead of sleeping out their delay. Once a write is admitted it
// completes — cancellation never leaves a half-applied write. The network
// server (cmd/clsm-server) threads every request's context through these
// variants; see docs/NETWORK.md.
func (db *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return db.sh.PutCtx(ctx, key, value)
}

// GetCtx is Get with a context. Reads never block, so ctx is checked once
// at entry: a canceled or expired context fails fast with ctx.Err().
func (db *DB) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return db.sh.GetCtx(ctx, key)
}

// MultiGetCtx is MultiGet with a context, checked once at entry (reads
// never block).
func (db *DB) MultiGetCtx(ctx context.Context, keys [][]byte) ([]Value, error) {
	return db.sh.MultiGetCtx(ctx, keys)
}

// DeleteCtx is Delete with cancellation (see PutCtx).
func (db *DB) DeleteCtx(ctx context.Context, key []byte) error { return db.sh.DeleteCtx(ctx, key) }

// WriteCtx is Write with cancellation (see PutCtx): the pre-admission
// waits honor ctx, and once the batch is admitted it applies atomically —
// cancellation never splits a batch.
func (db *DB) WriteCtx(ctx context.Context, b *Batch) error { return db.sh.WriteCtx(ctx, b) }

// RMW atomically replaces key's value with f(current). f may be called
// multiple times on conflicts; it must be pure. This is the paper's
// general non-blocking read-modify-write (Algorithm 3) — useful for
// counters, vector-clock updates, and multisite reconciliation.
func (db *DB) RMW(key []byte, f func(old []byte, exists bool) []byte) error {
	return db.sh.RMW(key, f)
}

// GetSnapshot returns a consistent snapshot handle for point reads and
// scans. Close it promptly: live snapshots pin old versions, blocking
// their garbage collection during merges.
func (db *DB) GetSnapshot() (*Snapshot, error) { return db.sh.GetSnapshot() }

// NewIterator returns an iterator over a fresh implicit snapshot,
// optionally bounded to a user-key range:
//
//	it, err := db.NewIterator(clsm.IterOptions{
//		LowerBound: []byte("user:"),        // inclusive
//		UpperBound: []byte("user;"),        // exclusive
//	})
//
// Bounds clamp every positioning method and let the engine skip whole
// sorted tables outside the range. Close the iterator when done.
func (db *DB) NewIterator(opts ...IterOptions) (*Iterator, error) {
	return db.sh.NewIterator(opts...)
}

// Flush synchronously merges the memtable into the disk component. After
// it returns, every previously acknowledged write is in a sorted table.
func (db *DB) Flush() error { return db.sh.Flush() }

// CompactRange synchronously flushes the memtable and compacts every level
// downward, reclaiming shadowed versions and tombstones.
func (db *DB) CompactRange() error { return db.sh.CompactRange() }

// CompactValueLog synchronously garbage-collects the value log: every
// segment whose garbage fraction is at or past Options.ValueLogGCRatio is
// rewritten (live values relocated to the head of the log) and reclaimed.
// A no-op on stores without separated values. See docs/VALUELOG.md.
func (db *DB) CompactValueLog(ctx context.Context) error { return db.sh.CompactValueLog(ctx) }

// Metrics returns a snapshot of the store's counters, summed over its
// shards.
func (db *DB) Metrics() Metrics { return db.sh.Metrics() }

// Observer returns the store's observability substrate: per-op latency
// histograms, substrate counters, and the engine event trace. Never nil;
// recording is always on (it is allocation-free and contention-striped).
// On a one-engine store it is that engine's live observer; past one
// shard it is a point-in-time aggregate of ShardObservers (call again
// for fresh numbers).
func (db *DB) Observer() *Observer { return db.sh.Observer() }

// Close flushes the log and releases all resources. Unflushed writes are
// recovered from the WAL on the next Open (unless DisableWAL was set).
func (db *DB) Close() error { return db.sh.Close() }
