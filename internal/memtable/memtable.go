// Package memtable provides the in-memory component (the paper's Cm / C'm):
// a reference-counted, multi-versioned sorted map over the lock-free skip
// list. Rotation (beforeMerge) freezes the table by publishing a fresh one;
// the frozen table serves reads until its merge completes and the last
// reader drops its reference.
package memtable

import (
	"sync"

	"clsm/internal/iterator"
	"clsm/internal/keys"
	"clsm/internal/skiplist"
	"clsm/internal/syncutil"
)

// ikeyScratch pools the transient internal-key encodings built by Add and
// InsertRMWKind. The skip list copies the key into its arena, so the scratch
// can be recycled the moment Insert returns — making the write path free of
// per-operation allocations.
var ikeyScratch = sync.Pool{New: func() any { return new([]byte) }}

// Table is one in-memory component.
type Table struct {
	syncutil.RefCounted
	list *skiplist.List
	// LogNum is the WAL file absorbing this table's writes; the log can be
	// deleted once the table is merged into the disk component.
	LogNum uint64
}

// New returns an empty memtable backed by WAL file logNum, holding one
// reference for the creator.
func New(logNum uint64) *Table {
	t := &Table{list: skiplist.New(), LogNum: logNum}
	t.InitRef(nil)
	return t
}

// Add inserts a version. Safe for concurrent use.
func (t *Table) Add(key []byte, ts uint64, kind keys.Kind, value []byte) {
	buf := ikeyScratch.Get().(*[]byte)
	*buf = keys.Encode((*buf)[:0], key, ts, kind)
	t.list.Insert(*buf, value)
	ikeyScratch.Put(buf)
}

// GetKind returns the newest version of key visible at ts: its stored
// bytes, timestamp and raw entry kind. found=false means the table holds
// no visible version. A KindDelete hit is a tombstone — the search must
// NOT continue to older components — and a KindValuePtr hit is an encoded
// value-log pointer rather than the value itself.
func (t *Table) GetKind(key []byte, ts uint64) (value []byte, valTS uint64, kind keys.Kind, found bool) {
	return t.list.Get(key, ts)
}

// InsertRMWKind attempts one conflict-checked insert (Algorithm 3) of a
// version of the given kind; see skiplist.List.InsertRMW. RMW inserts
// values or value-log pointers, and value-log GC relinks insert
// KindValuePtr entries through the same check.
func (t *Table) InsertRMWKind(key []byte, ts uint64, kind keys.Kind, value []byte, readTS uint64) bool {
	buf := ikeyScratch.Get().(*[]byte)
	*buf = keys.Encode((*buf)[:0], key, ts, kind)
	ok := t.list.InsertRMW(*buf, value, readTS)
	ikeyScratch.Put(buf)
	return ok
}

// ApproximateSize returns the bytes retained by entries, the memtable
// spill metric.
func (t *Table) ApproximateSize() int64 { return t.list.MemoryUsage() }

// Len returns the number of entries (all versions).
func (t *Table) Len() int { return t.list.Len() }

// iter adapts the skip-list iterator to the shared iterator contract.
type iter struct {
	*skiplist.Iterator
}

func (iter) Err() error { return nil }

// NewIterator returns a weakly consistent iterator over the table.
func (t *Table) NewIterator() iterator.Iterator {
	return iter{t.list.NewIterator()}
}
