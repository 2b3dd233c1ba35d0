package shard

import (
	"bytes"
	"context"

	"clsm/internal/core"
)

// Snapshot is a read-only view of a sharded store: one pinned core
// snapshot per shard. Each shard's view is individually consistent (a
// timestamp from that shard's oracle); the views are acquired together
// but the store has no global timestamp, so a write racing GetSnapshot
// may be visible on one shard's view and not another's. Single-key
// reads and scans are unaffected — every user key lives on exactly one
// shard (docs/SHARDING.md).
type Snapshot struct {
	db    *DB
	snaps []*core.Snapshot
}

// GetSnapshot acquires one snapshot per shard. On error the snapshots
// already acquired are released.
func (db *DB) GetSnapshot() (*Snapshot, error) {
	s := &Snapshot{db: db, snaps: make([]*core.Snapshot, len(db.shards))}
	for i, eng := range db.shards {
		snap, err := eng.GetSnapshot()
		if err != nil {
			for _, acquired := range s.snaps[:i] {
				acquired.Close()
			}
			return nil, err
		}
		s.snaps[i] = snap
	}
	return s, nil
}

// TS returns the largest per-shard snapshot timestamp. Shard oracles
// are independent, so this is an advisory progress number (useful for
// logging), not a cross-shard ordering point.
func (s *Snapshot) TS() uint64 {
	var ts uint64
	for _, snap := range s.snaps {
		if t := snap.TS(); t > ts {
			ts = t
		}
	}
	return ts
}

// Close releases every per-shard snapshot.
func (s *Snapshot) Close() {
	for _, snap := range s.snaps {
		snap.Close()
	}
}

// Get reads key from the owning shard's snapshot.
func (s *Snapshot) Get(key []byte) (value []byte, ok bool, err error) {
	return s.snaps[IndexOf(key, len(s.snaps))].Get(key)
}

// Has reports whether key is present in the owning shard's snapshot.
func (s *Snapshot) Has(key []byte) (bool, error) {
	return s.snaps[IndexOf(key, len(s.snaps))].Has(key)
}

// MultiGet reads every key through the snapshot, fanned out like
// DB.MultiGet.
func (s *Snapshot) MultiGet(ks [][]byte) ([]core.Value, error) {
	return multiGet(context.Background(), ks, len(s.snaps), func(_ context.Context, i int, group [][]byte) ([]core.Value, error) {
		return s.snaps[i].MultiGet(group)
	})
}

// NewIterator returns a merged iterator over every shard's snapshot,
// optionally bounded (core.IterOptions semantics).
func (s *Snapshot) NewIterator(opts ...core.IterOptions) (*Iterator, error) {
	return newIterator(s.snaps, nil, opts)
}

// NewIterator returns a merged iterator over a fresh implicit snapshot.
func (db *DB) NewIterator(opts ...core.IterOptions) (*Iterator, error) {
	snap, err := db.GetSnapshot()
	if err != nil {
		return nil, err
	}
	it, err := newIterator(snap.snaps, snap, opts)
	if err != nil {
		snap.Close()
		return nil, err
	}
	return it, nil
}

func newIterator(snaps []*core.Snapshot, owned *Snapshot, opts []core.IterOptions) (*Iterator, error) {
	it := &Iterator{children: make([]*core.Iterator, len(snaps)), cur: -1, ownedSnap: owned}
	for i, snap := range snaps {
		child, err := snap.NewIterator(opts...)
		if err != nil {
			for _, c := range it.children[:i] {
				c.Close()
			}
			return nil, err
		}
		it.children[i] = child
	}
	return it, nil
}

// Iterator k-way-merges the per-shard iterators into one ascending
// user-key sequence. The hash partition makes per-shard key sets
// disjoint, so the merge is a pure tournament over at most N cursors
// (argmin/argmax scans — N is small, so a heap would buy nothing) with
// no duplicate resolution. Bounds, snapshot visibility, and tombstone
// hiding are all enforced by the children.
type Iterator struct {
	children []*core.Iterator
	cur      int  // index of the child at the merge front; -1 = invalid
	back     bool // last positioning direction was backward
	kbuf     []byte
	// ownedSnap is the implicit snapshot of a DB.NewIterator; closed
	// with the iterator. Nil for snapshot-scoped iterators.
	ownedSnap *Snapshot
}

// First positions at the smallest key.
func (it *Iterator) First() {
	for _, c := range it.children {
		c.First()
	}
	it.back = false
	it.pickMin()
}

// Last positions at the largest key.
func (it *Iterator) Last() {
	for _, c := range it.children {
		c.Last()
	}
	it.back = true
	it.pickMax()
}

// Seek positions at the first key >= key.
func (it *Iterator) Seek(key []byte) {
	for _, c := range it.children {
		c.Seek(key)
	}
	it.back = false
	it.pickMin()
}

// SeekForPrev positions at the last key <= key.
func (it *Iterator) SeekForPrev(key []byte) {
	for _, c := range it.children {
		c.SeekForPrev(key)
	}
	it.back = true
	it.pickMax()
}

// Next advances to the next larger key.
func (it *Iterator) Next() {
	if it.cur < 0 {
		return
	}
	if it.back {
		// Direction change: children other than the front are parked at
		// keys <= the current one. Re-seek everyone past the current key;
		// only the owning child can land exactly on it (keys are
		// disjoint), so advance that one off it.
		it.kbuf = append(it.kbuf[:0], it.Key()...)
		for _, c := range it.children {
			c.Seek(it.kbuf)
			if c.Valid() && bytes.Equal(c.Key(), it.kbuf) {
				c.Next()
			}
		}
		it.back = false
	} else {
		it.children[it.cur].Next()
	}
	it.pickMin()
}

// Prev steps back to the next smaller key.
func (it *Iterator) Prev() {
	if it.cur < 0 {
		return
	}
	if !it.back {
		it.kbuf = append(it.kbuf[:0], it.Key()...)
		for _, c := range it.children {
			c.SeekForPrev(it.kbuf)
			if c.Valid() && bytes.Equal(c.Key(), it.kbuf) {
				c.Prev()
			}
		}
		it.back = true
	} else {
		it.children[it.cur].Prev()
	}
	it.pickMax()
}

func (it *Iterator) pickMin() {
	it.cur = -1
	for i, c := range it.children {
		if !c.Valid() {
			continue
		}
		if it.cur < 0 || bytes.Compare(c.Key(), it.children[it.cur].Key()) < 0 {
			it.cur = i
		}
	}
}

func (it *Iterator) pickMax() {
	it.cur = -1
	for i, c := range it.children {
		if !c.Valid() {
			continue
		}
		if it.cur < 0 || bytes.Compare(c.Key(), it.children[it.cur].Key()) > 0 {
			it.cur = i
		}
	}
}

// Valid reports whether the iterator is positioned at a key.
func (it *Iterator) Valid() bool { return it.cur >= 0 }

// Key returns the current key (valid until the next positioning call),
// or nil when the iterator is not positioned.
func (it *Iterator) Key() []byte {
	if it.cur < 0 {
		return nil
	}
	return it.children[it.cur].Key()
}

// Value returns the current value (valid until the next positioning
// call), or nil when the iterator is not positioned.
func (it *Iterator) Value() []byte {
	if it.cur < 0 {
		return nil
	}
	return it.children[it.cur].Value()
}

// Err returns the first error any shard's iterator encountered.
func (it *Iterator) Err() error {
	for _, c := range it.children {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every per-shard iterator (and the implicit snapshot,
// for iterators from DB.NewIterator).
func (it *Iterator) Close() {
	for _, c := range it.children {
		c.Close()
	}
	if it.ownedSnap != nil {
		it.ownedSnap.Close()
	}
	it.cur = -1
}

// Range collects up to limit key/value pairs in [start, end) (limit <= 0
// = unbounded), mirroring core.Iterator.Range.
func (it *Iterator) Range(start, end []byte, limit int) (ks, vs [][]byte, err error) {
	for it.Seek(start); it.Valid(); it.Next() {
		if end != nil && bytes.Compare(it.Key(), end) >= 0 {
			break
		}
		ks = append(ks, append([]byte(nil), it.Key()...))
		vs = append(vs, append([]byte(nil), it.Value()...))
		if limit > 0 && len(ks) >= limit {
			break
		}
	}
	return ks, vs, it.Err()
}
