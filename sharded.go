package clsm

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"clsm/internal/shard"
	"clsm/internal/version"
)

// MaxShards bounds Options.Shards. The limit is a sanity rail: each
// shard is a full engine (WAL, scheduler goroutines, level hierarchy),
// so counts past this point cost memory and file descriptors without
// buying contention relief.
const MaxShards = 256

// shardMarkerFile records the shard count in the root directory of a
// sharded store. Routing (key → shard) depends on the count, so it is
// part of the on-disk layout: Open verifies the marker on every reopen
// and rejects mismatches instead of silently misrouting reads.
const shardMarkerFile = "CLSM_SHARDS"

// OpenSharded creates or opens the store at path hash-partitioned
// across shards independent engines:
//
//	db, err := clsm.OpenSharded("/srv/db", 4,
//		clsm.WithMemtableSize(32<<20))
//
// It is OpenPath plus WithShards(shards); see Options.Shards and
// docs/SHARDING.md. An empty path opens a volatile in-memory store.
func OpenSharded(path string, shards int, options ...Option) (*DB, error) {
	return OpenPath(path, append([]Option{WithShards(shards)}, options...)...)
}

// shardDir names shard i's directory under the store root for a store
// opened with Options.Shards = shards: the root itself for the flat
// layout (shards == 0), shard-%03d otherwise (see the package doc). It
// and writeShardMarker are the one place the layout is decided; Open,
// Checkpoint, Backup and Restore all go through them.
func shardDir(shards, i int) string {
	if shards == 0 {
		return ""
	}
	return fmt.Sprintf("shard-%03d", i)
}

// writeShardMarker records the shard count in root; a no-op for the flat
// layout (shards == 0).
func writeShardMarker(root string, shards int) error {
	if shards == 0 {
		return nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, shardMarkerFile), []byte(strconv.Itoa(shards)+"\n"), 0o644)
}

// checkLayout verifies that the directory at path has the layout
// Options.Shards asks for, recording the marker of a fresh sharded store.
// A marker must match the requested count exactly (zero included) instead
// of silently misrouting reads, and a flat store cannot be reopened
// sharded: its data would disappear behind empty shard directories.
func checkLayout(path string, shards int) error {
	if path == "" {
		return nil
	}
	marker := filepath.Join(path, shardMarkerFile)
	b, err := os.ReadFile(marker)
	switch {
	case err == nil:
		prev, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil {
			return fmt.Errorf("%w: corrupt shard marker %s: %q", ErrInvalidOptions, marker, b)
		}
		if shards == 0 {
			return fmt.Errorf("%w: store at %s is sharded (%d shards); open it with WithShards", ErrInvalidOptions, path, prev)
		}
		if prev != shards {
			return fmt.Errorf("%w: store at %s has %d shards, opened with %d (the shard count is part of the on-disk layout and cannot change on reopen)", ErrInvalidOptions, path, prev, shards)
		}
		return nil
	case shards == 0:
		return nil // no marker (or unreadable): a flat store
	case !os.IsNotExist(err):
		return err
	}
	if _, serr := os.Stat(filepath.Join(path, version.CurrentFileName)); serr == nil {
		return fmt.Errorf("%w: store at %s exists unsharded; it cannot be reopened with %d shards", ErrInvalidOptions, path, shards)
	}
	return writeShardMarker(path, shards)
}

// NumShards reports the shard count: 1 for an unsharded store.
func (db *DB) NumShards() int { return db.sh.NumShards() }

// ShardObservers returns the live per-shard observability substrates of
// a store with more than one shard, indexed by shard (their events carry
// matching shard labels). A one-engine store, flat or WithShards(1),
// returns nil: its DB.Observer is already the engine's live observer.
func (db *DB) ShardObservers() []*Observer {
	if db.sh.NumShards() == 1 {
		return nil
	}
	return db.sh.Observers()
}

// MemtableBudgets returns each shard's current memtable quota in bytes.
// On a sharded store the memory governor moves these between shards at
// runtime (docs/SHARDING.md); a one-engine store reports its single
// budget.
func (db *DB) MemtableBudgets() []int64 { return db.sh.MemtableBudgets() }

// Snapshot is a consistent read-only view of the store; see
// DB.GetSnapshot. It holds one pinned view per shard: each view is
// individually consistent, and since every key lives on exactly one
// shard, point reads and scans behave exactly like a single engine's.
type Snapshot = shard.Snapshot

// Iterator walks user keys in ascending order; see DB.NewIterator. It
// k-way-merges the per-shard iterators — one engine's contract and
// snapshot semantics at any shard count.
type Iterator = shard.Iterator
