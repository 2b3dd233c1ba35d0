// Package shard implements horizontal sharding: a facade that
// hash-partitions keys across N fully independent cLSM engine instances
// — per-shard memtable, WAL, version set, scheduler, and health state —
// removing the global write chokepoints (one oracle counter, one WAL
// drain, one memtable) the source paper identifies as the scaling
// limits of a single store. Smaller per-shard data volumes also keep
// each shard's LSM tree shallower, cutting compaction write
// amplification.
//
// Cross-shard operations preserve per-shard semantics: MultiGet fans
// out in parallel with one pinned component set per touched shard,
// iterators k-way-merge per-shard bounded iterators (user keys are
// disjoint across shards, so the merge is a tournament, not a dedup),
// and atomic batches split into per-shard sub-batches — atomicity is
// per shard, not across shards (see docs/SHARDING.md).
//
// On top of the facade sits a global memory governor (governor.go): one
// arbiter holding a fixed byte budget that shifts memtable quota
// between shards and the shared block cache from observed per-shard
// write/read pressure, so a hot shard borrows memory from cold ones
// instead of stalling.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"clsm/internal/batch"
	"clsm/internal/core"
	"clsm/internal/keys"
	"clsm/internal/obs"
)

// Options configures a sharded store. The caller (the public API's
// option lowering) prepares one fully lowered core.Options per shard —
// each with its own FS root, its own Observer, and (usually) a
// namespaced View of one shared block cache.
type Options struct {
	// Engines are the per-shard engine configurations; len(Engines) is
	// the shard count and is part of the store's on-disk contract.
	Engines []core.Options

	// Governor configures the global memory governor. The zero value
	// disables it (budgets stay at their configured static split).
	Governor GovernorConfig
}

// DB is a sharded store. All methods are safe for concurrent use.
type DB struct {
	shards []*core.DB
	obs    []*obs.Observer
	gov    *governor
	closed atomic.Bool
}

// IndexOf returns the shard owning key among n shards. The hash is
// FNV-1a, inlined so routing allocates nothing; it is stable across
// processes and versions because routing is part of the on-disk
// contract of a sharded store (a key written to shard i must route to
// shard i on every future open).
func IndexOf(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// Open opens every shard engine and starts the memory governor. A
// failure opening shard i closes the shards already opened and returns
// shard i's error.
func Open(opts Options) (*DB, error) {
	n := len(opts.Engines)
	if n < 1 {
		return nil, fmt.Errorf("%w: sharded open with %d engine configs", core.ErrInvalidOptions, n)
	}
	db := &DB{}
	for i, eopts := range opts.Engines {
		eng, err := core.Open(eopts)
		if err != nil {
			for _, s := range db.shards {
				s.Close()
			}
			if n > 1 {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			return nil, err
		}
		db.shards = append(db.shards, eng)
		db.obs = append(db.obs, eng.Observer())
	}
	db.gov = startGovernor(db.shards, opts.Governor)
	return db, nil
}

// NumShards returns the shard count.
func (db *DB) NumShards() int { return len(db.shards) }

// Shard exposes one shard engine (tests, tools).
func (db *DB) Shard(i int) *core.DB { return db.shards[i] }

func (db *DB) route(key []byte) *core.DB {
	return db.shards[IndexOf(key, len(db.shards))]
}

// Close stops the governor and closes every shard. All shards are
// closed even when one errors; the first error is returned.
func (db *DB) Close() error {
	if !db.closed.CompareAndSwap(false, true) {
		return core.ErrClosed
	}
	db.gov.stop()
	var firstErr error
	for _, s := range db.shards {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Put stores (key, value) on the owning shard.
func (db *DB) Put(key, value []byte) error { return db.route(key).Put(key, value) }

// PutCtx is Put with cancellation.
func (db *DB) PutCtx(ctx context.Context, key, value []byte) error {
	return db.route(key).PutCtx(ctx, key, value)
}

// Get returns the current value of key from the owning shard.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	return db.route(key).Get(key)
}

// GetCtx is Get with a context, checked once at entry.
func (db *DB) GetCtx(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return db.route(key).GetCtx(ctx, key)
}

// Has reports whether key is present (not deleted).
func (db *DB) Has(key []byte) (bool, error) { return db.route(key).Has(key) }

// Delete removes key on the owning shard.
func (db *DB) Delete(key []byte) error { return db.route(key).Delete(key) }

// DeleteCtx is Delete with cancellation.
func (db *DB) DeleteCtx(ctx context.Context, key []byte) error {
	return db.route(key).DeleteCtx(ctx, key)
}

// RMW atomically replaces key's value with f(current) on the owning
// shard (single-key RMW never crosses shards).
func (db *DB) RMW(key []byte, f func(old []byte, exists bool) []byte) error {
	return db.route(key).RMW(key, f)
}

// MultiGet reads every key in one call. Keys are grouped by owning
// shard and the groups are fanned out in parallel, each against a
// single pinned component set on its shard — results are mutually
// consistent per shard (not across shards). results[i] corresponds to
// ks[i]; the first error aborts the batch.
func (db *DB) MultiGet(ks [][]byte) ([]core.Value, error) {
	return db.MultiGetCtx(context.Background(), ks)
}

// MultiGetCtx is MultiGet with a context, checked once at entry.
func (db *DB) MultiGetCtx(ctx context.Context, ks [][]byte) ([]core.Value, error) {
	return multiGet(ctx, ks, len(db.shards), func(ctx context.Context, s int, group [][]byte) ([]core.Value, error) {
		return db.shards[s].MultiGetCtx(ctx, group)
	})
}

// multiGet is the shared fan-out: group ks by shard, read each group
// through fetch (parallel when more than one shard is touched), and
// scatter the group results back to their original positions.
func multiGet(ctx context.Context, ks [][]byte, n int,
	fetch func(ctx context.Context, s int, group [][]byte) ([]core.Value, error)) ([]core.Value, error) {
	if len(ks) == 0 {
		return nil, nil
	}
	if n == 1 {
		return fetch(ctx, 0, ks)
	}
	groups := make([][][]byte, n) // keys routed to each shard
	where := make([][]int, n)     // their original positions
	touched := 0
	for i, k := range ks {
		s := IndexOf(k, n)
		if groups[s] == nil {
			touched++
		}
		groups[s] = append(groups[s], k)
		where[s] = append(where[s], i)
	}
	out := make([]core.Value, len(ks))
	scatter := func(s int, vals []core.Value) {
		for j, v := range vals {
			out[where[s][j]] = v
		}
	}
	if touched == 1 {
		for s := range groups {
			if groups[s] != nil {
				vals, err := fetch(ctx, s, groups[s])
				if err != nil {
					return nil, err
				}
				scatter(s, vals)
			}
		}
		return out, nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	for s := range groups {
		if groups[s] == nil {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			vals, err := fetch(ctx, s, groups[s])
			if err != nil {
				mu.Lock()
				if ferr == nil {
					ferr = err
				}
				mu.Unlock()
				return
			}
			scatter(s, vals)
		}(s)
	}
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// Write applies the batch, split into per-shard sub-batches, each
// applied atomically with its shard's group commit. Atomicity is per
// shard: a crash can persist one shard's sub-batch and not another's
// (each sub-batch still applies all-or-nothing). Cross-shard sub-batch
// commits run in parallel so sync-mode latency is the slowest shard,
// not the sum.
func (db *DB) Write(b *batch.Batch) error { return db.WriteCtx(context.Background(), b) }

// WriteCtx is Write with cancellation (per sub-batch; an already
// committed sub-batch is never rolled back).
func (db *DB) WriteCtx(ctx context.Context, b *batch.Batch) error {
	n := len(db.shards)
	if n == 1 {
		return db.shards[0].WriteCtx(ctx, b)
	}
	if b.Len() == 0 {
		return nil
	}
	subs := make([]*batch.Batch, n)
	touched := 0
	for _, e := range b.Entries() {
		s := IndexOf(e.Key, n)
		if subs[s] == nil {
			subs[s] = new(batch.Batch)
			touched++
		}
		if e.Kind == keys.KindDelete {
			subs[s].Delete(e.Key)
		} else {
			subs[s].Put(e.Key, e.Value)
		}
	}
	if touched == 1 {
		for s, sub := range subs {
			if sub != nil {
				return db.shards[s].WriteCtx(ctx, sub)
			}
		}
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	for s, sub := range subs {
		if sub == nil {
			continue
		}
		wg.Add(1)
		go func(s int, sub *batch.Batch) {
			defer wg.Done()
			if err := db.shards[s].WriteCtx(ctx, sub); err != nil {
				mu.Lock()
				if ferr == nil {
					ferr = err
				}
				mu.Unlock()
			}
		}(s, sub)
	}
	wg.Wait()
	return ferr
}

// Flush synchronously merges every shard's memtable into its disk
// component. All shards are flushed even when one errors; the first
// error is returned.
func (db *DB) Flush() error { return db.each((*core.DB).Flush) }

// CompactRange synchronously flushes and fully compacts every shard.
func (db *DB) CompactRange() error { return db.each((*core.DB).CompactRange) }

// CompactValueLog garbage-collects every shard's value log; all shards
// run even when one errors, and the first error is returned.
func (db *DB) CompactValueLog(ctx context.Context) error {
	return db.each(func(s *core.DB) error { return s.CompactValueLog(ctx) })
}

// Resume clears retryable health states on every shard.
func (db *DB) Resume() error { return db.each((*core.DB).Resume) }

func (db *DB) each(f func(*core.DB) error) error {
	var firstErr error
	for _, s := range db.shards {
		if err := f(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Metrics returns the element-wise sum of every shard's counters.
func (db *DB) Metrics() core.Metrics {
	var m core.Metrics
	for _, s := range db.shards {
		sm := s.Metrics()
		m.Puts += sm.Puts
		m.Gets += sm.Gets
		m.Deletes += sm.Deletes
		m.RMWs += sm.RMWs
		m.RMWRetries += sm.RMWRetries
		m.Txns += sm.Txns
		m.TxnConflicts += sm.TxnConflicts
		m.Snapshots += sm.Snapshots
		m.Flushes += sm.Flushes
		m.Compactions += sm.Compactions
		m.FlushBytes += sm.FlushBytes
		m.CompactionBytes += sm.CompactionBytes
		m.StallTime += sm.StallTime
		m.WriteStalls += sm.WriteStalls
		m.CacheHits += sm.CacheHits
		m.CacheMisses += sm.CacheMisses
		m.DiskBytes += sm.DiskBytes
		m.DiskFiles += sm.DiskFiles
		m.VlogSegments += sm.VlogSegments
		m.VlogGarbageBytes += sm.VlogGarbageBytes
		m.VlogGCRuns += sm.VlogGCRuns
		for i := range m.LevelSize {
			m.LevelSize[i] += sm.LevelSize[i]
		}
	}
	return m
}

// Health reports the worst shard's health state (states are ordered by
// severity) together with that shard's error.
func (db *DB) Health() core.HealthStatus {
	var worst core.HealthStatus
	for _, s := range db.shards {
		h := s.Health()
		if h.State > worst.State {
			worst = h
		}
	}
	return worst
}

// ApproximateSize sums the shards' on-disk estimates for [start, end).
func (db *DB) ApproximateSize(start, end []byte) uint64 {
	var n uint64
	for _, s := range db.shards {
		n += s.ApproximateSize(start, end)
	}
	return n
}

// Observers returns the per-shard observers, indexed by shard.
func (db *DB) Observers() []*obs.Observer { return db.obs }

// Observer returns the only engine's live observer on a one-shard store,
// and otherwise a point-in-time aggregate of every shard's
// instrumentation (see obs.Aggregate); call again for fresh numbers.
func (db *DB) Observer() *obs.Observer {
	if len(db.obs) == 1 {
		return db.obs[0]
	}
	return obs.Aggregate(db.obs...)
}

// MemtableBudgets returns the current per-shard memtable budgets (the
// governor moves these at runtime).
func (db *DB) MemtableBudgets() []int64 {
	out := make([]int64, len(db.shards))
	for i, s := range db.shards {
		out[i] = s.MemtableBudget()
	}
	return out
}
