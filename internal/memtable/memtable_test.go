package memtable

import (
	"fmt"
	"sync/atomic"
	"testing"

	"clsm/internal/keys"
)

func TestAddGetVersions(t *testing.T) {
	mt := New(7)
	defer mt.Unref()
	if mt.LogNum != 7 {
		t.Fatalf("LogNum = %d", mt.LogNum)
	}
	mt.Add([]byte("k"), 5, keys.KindValue, []byte("v5"))
	mt.Add([]byte("k"), 9, keys.KindValue, []byte("v9"))

	v, ts, kind, found := mt.GetKind([]byte("k"), keys.MaxTimestamp)
	if !found || kind != keys.KindValue || ts != 9 || string(v) != "v9" {
		t.Fatalf("GetKind = %q,%d,%v,%v", v, ts, kind, found)
	}
	v, ts, _, found = mt.GetKind([]byte("k"), 6)
	if !found || ts != 5 || string(v) != "v5" {
		t.Fatalf("GetKind@6 = %q,%d,%v", v, ts, found)
	}
	if _, _, _, found := mt.GetKind([]byte("k"), 4); found {
		t.Fatal("GetKind@4 should miss")
	}
	if _, _, _, found := mt.GetKind([]byte("x"), keys.MaxTimestamp); found {
		t.Fatal("absent key found")
	}
}

func TestTombstoneStopsSearch(t *testing.T) {
	mt := New(1)
	defer mt.Unref()
	mt.Add([]byte("k"), 5, keys.KindValue, []byte("v"))
	mt.Add([]byte("k"), 8, keys.KindDelete, nil)

	_, ts, kind, found := mt.GetKind([]byte("k"), keys.MaxTimestamp)
	if !found || kind != keys.KindDelete || ts != 8 {
		t.Fatalf("tombstone not surfaced: kind=%v ts=%d found=%v", kind, ts, found)
	}
	// Below the tombstone the old value is visible.
	v, _, kind, found := mt.GetKind([]byte("k"), 6)
	if !found || kind != keys.KindValue || string(v) != "v" {
		t.Fatalf("GetKind@6 = %q,%v,%v", v, kind, found)
	}
}

// TestGetWithTS: the getter reports the version's timestamp (the read
// step of Algorithm 3) and its raw kind, so a value-log pointer is told
// apart from an inline value.
func TestGetWithTS(t *testing.T) {
	mt := New(1)
	defer mt.Unref()
	mt.Add([]byte("k"), 42, keys.KindValue, []byte("v"))
	mt.Add([]byte("p"), 43, keys.KindValuePtr, []byte("ptr"))
	v, ts, kind, found := mt.GetKind([]byte("k"), keys.MaxTimestamp)
	if !found || kind != keys.KindValue || ts != 42 || string(v) != "v" {
		t.Fatalf("GetKind(k) = %q,%d,%v,%v", v, ts, kind, found)
	}
	v, ts, kind, found = mt.GetKind([]byte("p"), keys.MaxTimestamp)
	if !found || kind != keys.KindValuePtr || ts != 43 || string(v) != "ptr" {
		t.Fatalf("GetKind(p) = %q,%d,%v,%v", v, ts, kind, found)
	}
}

func TestInsertRMWThroughMemtable(t *testing.T) {
	mt := New(1)
	defer mt.Unref()
	if !mt.InsertRMWKind([]byte("k"), 5, keys.KindValue, []byte("a"), 0) {
		t.Fatal("first RMW insert failed")
	}
	if mt.InsertRMWKind([]byte("k"), 7, keys.KindValue, []byte("b"), 0) {
		t.Fatal("conflicting RMW insert succeeded")
	}
	if !mt.InsertRMWKind([]byte("k"), 7, keys.KindValuePtr, []byte("p"), 5) {
		t.Fatal("RMW with fresh read failed")
	}
	if _, ts, kind, _ := mt.GetKind([]byte("k"), keys.MaxTimestamp); ts != 7 || kind != keys.KindValuePtr {
		t.Fatalf("newest version = ts %d kind %v, want the pointer at 7", ts, kind)
	}
}

func TestIteratorAndSize(t *testing.T) {
	mt := New(1)
	defer mt.Unref()
	if mt.ApproximateSize() != 0 || mt.Len() != 0 {
		t.Fatal("fresh memtable not empty")
	}
	for i := 0; i < 100; i++ {
		mt.Add([]byte(fmt.Sprintf("k%03d", i)), uint64(i+1), keys.KindValue, []byte("v"))
	}
	if mt.Len() != 100 || mt.ApproximateSize() <= 0 {
		t.Fatalf("Len=%d size=%d", mt.Len(), mt.ApproximateSize())
	}
	it := mt.NewIterator()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if n != 100 || it.Err() != nil {
		t.Fatalf("iterated %d err=%v", n, it.Err())
	}
	it.SeekGE(keys.SeekKey([]byte("k050"), keys.MaxTimestamp))
	if !it.Valid() || string(keys.UserKey(it.Key())) != "k050" {
		t.Fatal("SeekGE failed")
	}
}

func TestRefCountedLifetime(t *testing.T) {
	mt := New(1)
	var finalized atomic.Bool
	// Re-init with a finalizer to observe the drop (tests only).
	mt.InitRef(func() { finalized.Store(true) })
	mt.Ref()
	mt.Unref()
	if finalized.Load() {
		t.Fatal("finalized with a live reference")
	}
	mt.Unref()
	if !finalized.Load() {
		t.Fatal("finalizer did not run")
	}
}
